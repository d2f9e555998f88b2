package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// The serving stack both serve workloads run: ResilientClient (2 conns) →
// router → 2 in-process workers, each a netserve.Server over a fleet whose
// tenants are ShardedWrappers warm-started from a registry generation.
const (
	stackWorkers = 2
	clientConns  = 2
)

// stackSpec describes the tenants a stack serves.
type stackSpec struct {
	regDir  string
	tenants int
	in, out int
	// probe is the input of every tenant's first (setup) query.
	probe []float64
	// newWrapper builds tenant i's wrapper (cold; the registry warms it).
	newWrapper func(i int) *core.ShardedWrapper
	// publish attaches a timed registry.Publisher hook to every wrapper.
	publish bool
	// tr, when set, registers tracedBackends instead of bare wrappers.
	tr   *tracer
	link func(x []float64, batch int32)
}

// regKey is tenant i's registry name (wire names are chosen per stack).
func regKey(i int) string { return fmt.Sprintf("tenant%d", i) }

// stack is one running serving stack.
type stack struct {
	reg      *registry.Registry
	fleets   []*fleet.Fleet
	servers  []*netserve.Server
	rt       *router.Router
	cl       *netserve.ResilientClient // setup queries only; closed once set up
	addr     string                    // the router's address
	names    []string                  // wire name of tenant i
	wrappers []*core.ShardedWrapper
	warm     []time.Duration // WarmStartSharded per tenant

	pubMu    sync.Mutex
	pubTimes []float64 // ms per publish
	pubErrs  int
}

// startStack builds the stack and returns it once every tenant has
// answered one query through the whole path. Its wall time is the
// serving workloads' setup_s.
func startStack(spec stackSpec) (*stack, error) {
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var err error
	if st.reg, err = registry.Open(registry.Config{Dir: spec.regDir}); err != nil {
		return nil, err
	}
	addrs := make([]string, stackWorkers)
	for w := 0; w < stackWorkers; w++ {
		fl := fleet.New(fleet.Config{Coalescer: serve.Config{MaxBatch: 64}})
		st.fleets = append(st.fleets, fl)
		srv := netserve.NewServer(netserve.Config{Fleet: fl})
		st.servers = append(st.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(ln)
		addrs[w] = ln.Addr().String()
	}
	if st.rt, err = router.New(router.Config{Workers: addrs}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go st.rt.Serve(ln)
	st.addr = ln.Addr().String()
	if st.cl, err = netserve.DialResilient(ln.Addr().String(), netserve.ResilientConfig{Conns: clientConns}); err != nil {
		return nil, err
	}
	owners, err := st.placeTenants(spec.tenants, spec.in, addrs)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(1)
	for i := 0; i < spec.tenants; i++ {
		w := spec.newWrapper(i)
		st.wrappers = append(st.wrappers, w)
		t0 := time.Now()
		var start int64
		if spec.tr != nil {
			start = spec.tr.now()
		}
		warmed := registry.WarmStartSharded(st.reg, regKey(i), w, rng, nil)
		st.warm = append(st.warm, time.Since(t0))
		if spec.tr != nil {
			spec.tr.record(spanWarm, -1, start, spec.tr.now())
		}
		if warmed != w.NumShards() {
			return nil, fmt.Errorf("tenant %d: %d of %d shards warm-started", i, warmed, w.NumShards())
		}
		if spec.publish {
			w.SetPublishHook(st.timedPublisher(regKey(i), spec.tr))
		}
		var backend serve.Backend = w
		if spec.tr != nil {
			backend = &tracedBackend{w: w, tr: spec.tr, link: spec.link}
		}
		if err := st.fleets[owners[i]].Register(st.names[i], backend); err != nil {
			return nil, err
		}
	}
	for _, name := range st.names {
		if _, err := st.cl.Query(name, spec.probe, time.Time{}); err != nil {
			return nil, fmt.Errorf("first answer from %s: %w", name, err)
		}
	}
	st.cl.Close()
	st.cl = nil
	ok = true
	return st, nil
}

// placeTenants picks the tenants' wire names so that the router's
// consistent-hash placement spreads them evenly over the workers: the
// ring hashes worker addresses, which change with every listen, and an
// uneven split would make run-to-run numbers depend on port numbers.
// Candidate names are probed through the router (workers answer
// UnknownTenant) and the router's placement table says who owns each.
func (st *stack) placeTenants(n, in int, addrs []string) (owners []int, err error) {
	x := make([]float64, in)
	perWorker := make([][]string, len(addrs))
	want := (n + len(addrs) - 1) / len(addrs)
	for c := 0; c < 64; c++ {
		name := fmt.Sprintf("t%d", c)
		if _, err := st.cl.Query(name, x, time.Time{}); err == nil {
			return nil, fmt.Errorf("probe tenant %s answered", name)
		}
		owner := st.rt.Placements()[name]
		for w, a := range addrs {
			if a == owner && len(perWorker[w]) < want {
				perWorker[w] = append(perWorker[w], name)
			}
		}
		total := 0
		for _, names := range perWorker {
			total += len(names)
		}
		if total >= n {
			break
		}
	}
	for i := 0; i < n; i++ {
		w := i % len(addrs)
		if len(perWorker[w]) == 0 {
			return nil, fmt.Errorf("no tenant name places on worker %d", w)
		}
		st.names = append(st.names, perWorker[w][0])
		perWorker[w] = perWorker[w][1:]
		owners = append(owners, w)
	}
	return owners, nil
}

// timedPublisher wraps registry.Publisher, timing every publish and, with
// tr set, recording it as a registry.publish span.
func (st *stack) timedPublisher(key string, tr *tracer) core.PublishHook {
	pub := registry.Publisher(st.reg, key, func(int, error) {
		st.pubMu.Lock()
		st.pubErrs++
		st.pubMu.Unlock()
	})
	return func(shard int, sur core.Surrogate, residBase float64) {
		t0 := time.Now()
		var start int64
		if tr != nil {
			start = tr.now()
		}
		pub(shard, sur, residBase)
		d := time.Since(t0)
		if tr != nil {
			tr.record(spanPublish, -1, start, tr.now())
		}
		st.pubMu.Lock()
		st.pubTimes = append(st.pubTimes, float64(d)/1e6)
		st.pubMu.Unlock()
	}
}

// close tears the stack down front to back and waits for refits still
// running, so no publish outlives the registry.
func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for _, f := range st.fleets {
		f.Close()
	}
	for _, w := range st.wrappers {
		w.Wait()
	}
	if st.reg != nil {
		st.reg.Close()
	}
}

// setupRepeats is how many times a serving run builds its stack; setup_s
// is the median.
const setupRepeats = 9
