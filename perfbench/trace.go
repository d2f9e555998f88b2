package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded by the benchmark's own code around a call it makes into a
// layer's public API; spans inside the program are future work.
type spanKind uint8

const (
	spanStep    spanKind = iota // sweep: one campaign batch, QueryBatch through Wait
	spanBatch                   // core: ShardedWrapper.QueryBatch / QueryBatchInto
	spanWait                    // core: ShardedWrapper.Wait (refits charged to the sweep)
	spanOracle                  // md: one simulation run
	spanPublish                 // registry: one publish through the Publisher hook
	spanWarm                    // registry: WarmStartSharded for one tenant
)

var spanNames = [...]string{"sweep.step", "core.batch", "core.wait", "md.run", "registry.publish", "registry.warm"}

// span is one recorded interval in nanoseconds since the tracer's epoch;
// parent is the index of the span that caused it (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// tracer keeps spans in a preallocated slab filled through an atomic
// cursor, so recording from many goroutines takes no lock and allocates
// nothing; spans past capacity are counted, not kept. The slab is read
// only after every recording goroutine has finished.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index (-1 when the slab is full).
func (t *tracer) begin(kind spanKind, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, kind: kind}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// record stores a finished span.
func (t *tracer) record(kind spanKind, parent int32, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: start, end: end, parent: parent, kind: kind}
}

// recorded returns the kept spans.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// mdCover returns, per span index, how much of the span's interval its
// md.run children cover (their union, clipped to the span).
func mdCover(spans []span) map[int32]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.kind == spanOracle && s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	cover := make(map[int32]int64, len(kids))
	for p, iv := range kids {
		ps := spans[p]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var total, curS, curE int64
		curS, curE = -1, -1
		for _, v := range iv {
			s, e := max(v[0], ps.start), min(v[1], ps.end)
			if e <= s {
				continue
			}
			if s > curE {
				if curE > curS {
					total += curE - curS
				}
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		if curE > curS {
			total += curE - curS
		}
		cover[p] = total
	}
	return cover
}

// writeSpans writes every span as gzipped CSV (id, name, start and end in
// µs since the tracer epoch, parent id, and for wire requests the id of
// the core.batch span that served them). extra appends the request spans
// the load generator keeps in its own per-slot arrays.
func writeSpans(opt options, t *tracer, extra func(w *bufio.Writer, nextID int)) (string, error) {
	dir := filepath.Join(opt.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,start_us,end_us,parent,served_by")
	spans := t.recorded()
	for i, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%.3f,%.3f,%d,-1\n", i, spanNames[s.kind], float64(s.start)/1e3, float64(s.end)/1e3, s.parent)
	}
	if extra != nil {
		extra(bw, len(spans))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedBackend is the serve.Backend the traced serving runs register in
// the fleet instead of the bare wrapper: it records a core.batch span
// around every QueryBatchInto and, when the rows carry request tags,
// notes which batch served each request. It forwards the optional faces
// the fleet probes for — shard Status, QuantStats and the brownout
// controls — so fleet stats and brownout see the same backend as in an
// untraced run.
type tracedBackend struct {
	w  *core.ShardedWrapper
	tr *tracer
	// link, when set, is told the batch span serving each row.
	link func(x []float64, batch int32)
}

func (b *tracedBackend) QueryBatch(xs *tensor.Matrix) ([]core.BatchResult, error) {
	res := make([]core.BatchResult, xs.Rows)
	return res, b.QueryBatchInto(xs, res)
}

func (b *tracedBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	id := b.tr.begin(spanBatch, -1)
	if b.link != nil {
		for i := 0; i < xs.Rows; i++ {
			b.link(xs.Row(i), id)
		}
	}
	err := b.w.QueryBatchInto(xs, res)
	b.tr.end(id)
	return err
}

func (b *tracedBackend) Dims() (in, out int)                     { return b.w.Dims() }
func (b *tracedBackend) Status() []core.ShardStatus              { return b.w.Status() }
func (b *tracedBackend) QuantStats() (queries, fallbacks uint64) { return b.w.QuantStats() }
func (b *tracedBackend) SetBrownoutLevel(level int)              { b.w.SetBrownoutLevel(level) }
func (b *tracedBackend) BrownoutLevel() int                      { return b.w.BrownoutLevel() }
