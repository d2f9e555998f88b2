package netserve

import "time"

// Backoff is the jittered exponential backoff ladder every retry and
// redial loop in the serving tier climbs: each step waits a uniform draw
// from [D/2, D), then D doubles, clamped at Max. The jitter keeps clients
// that failed together from retrying in lockstep. A Backoff is a plain
// value, so stepping it never allocates; each loop owns its own.
type Backoff struct {
	// D is the next step's upper bound; Max caps it.
	D, Max time.Duration
}

// Next returns this step's delay for a uniform draw u in [0, 1) and
// advances the ladder.
func (b *Backoff) Next(u float64) time.Duration {
	d := b.D/2 + time.Duration(u*float64(b.D/2))
	if b.D *= 2; b.D > b.Max {
		b.D = b.Max
	}
	return d
}
