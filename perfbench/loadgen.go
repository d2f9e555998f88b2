package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netserve"
)

// Outcome codes of one scheduled request slot.
const (
	slotPending uint8 = iota
	slotOK
	slotShed     // overload retries exhausted (ErrRetry) or breaker open
	slotExpired  // ErrExpired
	slotError    // any other error
	slotOverflow // the generator had no free sender when the slot fell due
)

// genSenders bounds the requests the generator keeps in flight; a slot
// that finds every sender busy and the hand-off queue full is counted as
// overflow rather than silently skipped.
const genSenders = 4096

// phase is one open-loop run at a fixed offered rate. Per-slot arrays are
// written by exactly one sender each and read after every slot completes.
type phase struct {
	rate     float64
	n        int // scheduled slots
	epoch    time.Time
	interval float64 // ns between due times
	input    func(slot int, x []float64) (tenant string)

	sendNs, doneNs []int64 // since epoch
	status         []uint8
	fromSurrogate  []bool
	// served records which core.batch span answered each slot (traced
	// runs only; -1 when unknown).
	served []atomic.Int32
	// answers keeps the outputs of every stride-th slot for the answer check.
	stride    int
	answers   [][]float64
	nonfinite atomic.Int64
	pending   sync.WaitGroup
}

func newPhase(rate, seconds float64, out int, traced bool, input func(slot int, x []float64) string) *phase {
	n := int(rate * seconds)
	if n < 1 {
		n = 1
	}
	p := &phase{
		rate: rate, n: n, interval: 1e9 / rate, input: input,
		sendNs: make([]int64, n), doneNs: make([]int64, n),
		status: make([]uint8, n), fromSurrogate: make([]bool, n),
	}
	if traced {
		p.served = make([]atomic.Int32, n)
		for i := range p.served {
			p.served[i].Store(-1)
		}
	}
	p.stride = n/answerSamples + 1
	p.answers = make([][]float64, (n+p.stride-1)/p.stride)
	for i := range p.answers {
		p.answers[i] = make([]float64, out)
	}
	return p
}

// answerSamples is roughly how many answers per phase are kept for the
// answer check.
const answerSamples = 1024

// job hands one due slot to a sender.
type job struct {
	p    *phase
	slot int32
}

// generator drives open-loop phases through one ResilientClient. One
// pacing goroutine (the caller of run) releases each slot at its due time
// to a fixed pool of senders, each of which makes one blocking QueryInto
// at a time.
type generator struct {
	cl      *netserve.ResilientClient
	in, out int
	jobs    chan job
	wg      sync.WaitGroup
}

// newGenerator dials the router with clientConns connections and starts
// the senders.
func newGenerator(addr string, in, out int) (*generator, error) {
	cl, err := netserve.DialResilient(addr, netserve.ResilientConfig{Conns: clientConns})
	if err != nil {
		return nil, err
	}
	// The hand-off queue holds as many due slots as there are senders: a
	// slot is overflow only when that backlog is full too.
	g := &generator{cl: cl, in: in, out: out, jobs: make(chan job, genSenders)}
	for i := 0; i < genSenders; i++ {
		g.wg.Add(1)
		go g.sender()
	}
	return g, nil
}

// close stops the senders, waits for them to exit and closes the client.
func (g *generator) close() {
	close(g.jobs)
	g.wg.Wait()
	g.cl.Close()
}

func (g *generator) sender() {
	defer g.wg.Done()
	x := make([]float64, g.in)
	y := make([]float64, g.out)
	std := make([]float64, g.out)
	for j := range g.jobs {
		p, i := j.p, int(j.slot)
		tenant := p.input(i, x)
		p.sendNs[i] = int64(time.Since(p.epoch))
		res, err := g.cl.QueryInto(tenant, x, y, std, time.Time{})
		p.doneNs[i] = int64(time.Since(p.epoch))
		switch {
		case err == nil:
			p.status[i] = slotOK
			p.fromSurrogate[i] = res.Src == core.FromSurrogate
			if !allFinite(res.Y) {
				p.nonfinite.Add(1)
			}
			if i%p.stride == 0 {
				copy(p.answers[i/p.stride], res.Y)
			}
		case errors.Is(err, netserve.ErrRetry), errors.Is(err, netserve.ErrCircuitOpen):
			p.status[i] = slotShed
		case errors.Is(err, netserve.ErrExpired):
			p.status[i] = slotExpired
		default:
			p.status[i] = slotError
		}
		p.pending.Done()
	}
}

// drainTimeout bounds how long after its last due time a phase may take
// to complete; slots still unanswered then are silent drops.
const drainTimeout = 10 * time.Second

// run paces p's slots at their due times and waits for every answer. It
// returns the number of slots that never completed (silent drops).
//
// The pacer sleeps in preciseSleep until spin before each due time and
// busy-waits the rest; it never spins on runtime.Gosched, which would keep
// a runnable goroutine in the global queue and stop idle processors from
// blocking in the network poller. Each sender records when it actually
// called QueryInto, so the generator's own lateness is reported next to
// the latencies.
func (g *generator) run(p *phase) int {
	// The busy-wait absorbs nanosleep's wake-up jitter; it never exceeds a
	// quarter of the gap, so the pacer leaves most of its core idle.
	spin := min(20*time.Microsecond, time.Duration(p.interval/4))
	p.epoch = time.Now()
	for i := 0; i < p.n; i++ {
		due := time.Duration(float64(i) * p.interval)
		if wait := due - time.Since(p.epoch); wait > spin {
			preciseSleep(wait - spin)
		}
		for time.Since(p.epoch) < due {
		}
		p.pending.Add(1)
		select {
		case g.jobs <- job{p, int32(i)}:
			// The sender is next on this processor: yield so it issues
			// its request now, not when the pacer next blocks.
			runtime.Gosched()
		default:
			p.status[i] = slotOverflow
			p.pending.Done()
		}
	}
	done := make(chan struct{})
	go func() {
		p.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		return 0
	case <-time.After(drainTimeout):
		missing := 0
		for i := range p.status {
			if p.status[i] == slotPending {
				missing++
			}
		}
		return missing
	}
}

// phaseStats summarises a completed phase. Latencies are also grouped by
// the window their request fell due in: a single stall of the shared
// machine moves one window's tail, not the median over windows, so the
// reported percentiles are medians of per-window percentiles.
type phaseStats struct {
	rate                  float64
	attempted, ok, failed int
	shed, expired, errs   int
	overflow              int
	surrogate             int
	achieved              float64   // answers per second, first due to last answer
	lat, late             []float64 // ns, answered slots: due→answer, due→send
	win                   [][]float64
	winMiss               []float64 // per window: share of slots over the limit or failed
}

func (p *phase) stats(limit, window time.Duration) phaseStats {
	s := phaseStats{rate: p.rate, attempted: p.n}
	nw := int(time.Duration(float64(p.n)*p.interval)/window) + 1
	s.win = make([][]float64, nw)
	slots := make([]int, nw)
	misses := make([]int, nw)
	var last int64
	for i := 0; i < p.n; i++ {
		due := int64(float64(i) * p.interval)
		w := int(due / int64(window))
		slots[w]++
		switch p.status[i] {
		case slotOK:
			s.ok++
			if p.fromSurrogate[i] {
				s.surrogate++
			}
			l := p.doneNs[i] - due
			s.lat = append(s.lat, float64(l))
			s.win[w] = append(s.win[w], float64(l))
			s.late = append(s.late, float64(p.sendNs[i]-due))
			if time.Duration(l) > limit {
				misses[w]++
			}
			last = max(last, p.doneNs[i])
			continue
		case slotShed:
			s.shed++
		case slotExpired:
			s.expired++
		case slotOverflow:
			s.overflow++
		default:
			s.errs++
		}
		misses[w]++
	}
	s.failed = s.shed + s.expired + s.errs + s.overflow
	for w := range slots {
		if slots[w] > 0 {
			s.winMiss = append(s.winMiss, float64(misses[w])/float64(slots[w]))
		}
	}
	if last > 0 {
		s.achieved = float64(s.ok) / (float64(last) / 1e9)
	}
	return s
}

// windowed is the median over windows of the q-quantile of each window's
// latencies (ns). Windows holding less than half the typical window's
// answers (a short final window) are left out.
func (s phaseStats) windowed(q float64) float64 {
	most := 0
	for _, w := range s.win {
		most = max(most, len(w))
	}
	var per []float64
	for _, w := range s.win {
		if len(w) > 0 && 2*len(w) >= most {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}
