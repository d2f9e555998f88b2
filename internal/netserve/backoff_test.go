package netserve

import (
	"testing"
	"time"
)

// TestBackoffLadder pins the ladder: each step's delay lies in [D/2, D)
// of its rung, rungs double from the base, and the cap holds.
func TestBackoffLadder(t *testing.T) {
	b := Backoff{D: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	rungs := []time.Duration{10, 20, 40, 50, 50}
	for i, rung := range rungs {
		rung *= time.Millisecond
		lo := b
		if got := lo.Next(0); got != rung/2 {
			t.Fatalf("step %d: u=0 delay %v, want %v", i, got, rung/2)
		}
		hi := b
		if got := hi.Next(0.999); got < rung/2 || got >= rung {
			t.Fatalf("step %d: u=0.999 delay %v outside [%v, %v)", i, got, rung/2, rung)
		}
		b.Next(0.5)
	}
	if b.D != 50*time.Millisecond {
		t.Fatalf("ladder ran past its cap: D = %v", b.D)
	}
}

// TestBackoffZeroAlloc pins the helper's cost: stepping never allocates.
func TestBackoffZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		b := Backoff{D: time.Millisecond, Max: time.Second}
		for i := 0; i < 12; i++ {
			b.Next(0.3)
		}
	})
	if allocs != 0 {
		t.Fatalf("Backoff.Next allocates %g times per ladder, want 0", allocs)
	}
}
