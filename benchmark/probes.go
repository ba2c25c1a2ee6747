package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	cilkm "repro"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pagepool"
	"repro/internal/pbfs"
	"repro/internal/reducers"
	"repro/internal/spa"
)

// probeViews is K, the number of views a trace-cycle probe creates,
// transfers and merges per cycle — trace_cycle's own width.
const probeViews = cycleReducers

// prober runs the per-layer probes: each times one call into one layer,
// from outside, in batches long enough that reading the clock costs less
// than a hundredth of the batch.
type prober struct {
	pl     plan
	budget time.Duration // per probe
	leg    time.Duration // per shortened workload
	timer  float64       // ns one now() costs: what a timed interval includes of its two clock reads
	out    map[string]float64
	errs   []error
}

// runProbes measures every per-layer metric that does not depend on which
// workload is being run.
func runProbes(pl plan) (map[string]float64, []error) {
	pr := &prober{
		pl:     pl,
		budget: time.Duration(pl.seconds * 0.004 * float64(time.Second)),
		leg:    time.Duration(pl.seconds * 0.04 * float64(time.Second)),
		out:    make(map[string]float64),
	}
	pr.harness()
	pr.reducersLayer()
	pr.coreLayer()
	pr.hypermapLayer()
	pr.schedLayer()
	pr.spaLayer()
	pr.pagepoolLayer()
	pr.bagLayer()
	pr.pbfsLayer()
	pr.metricsLayer()
	pr.serviceSpans()
	pr.serviceSweep()
	return pr.out, pr.errs
}

func (pr *prober) check(what string, errs ...error) {
	for _, err := range errs {
		if err != nil {
			pr.errs = append(pr.errs, fmt.Errorf("%s: %w", what, err))
		}
	}
}

// perOp calls batch, which performs n ops, until the probe's budget is
// spent and returns the median ns per op over the batches.
func (pr *prober) perOp(n int, batch func()) float64 {
	return pr.segments(func() (int64, int) {
		t0 := now()
		batch()
		return now() - t0, n
	})
}

// session builds a one-worker session for probing and hands its only
// worker's context to body, inside a single Run.
func (pr *prober) session(what string, body func(s *cilkm.Session, c *cilkm.Context), opts ...cilkm.Option) {
	s := cilkm.New(append([]cilkm.Option{cilkm.WithWorkers(1)}, opts...)...)
	pr.check(what, s.Run(func(c *cilkm.Context) { body(s, c) }), s.Quiescent())
	s.Close()
}

func (pr *prober) harness() {
	const n = 1 << 14
	var sink int64
	pr.out["harness.timer_ns"] = pr.perOp(n, func() {
		for i := 0; i < n; i++ {
			sink += now()
		}
	})
	pr.timer = pr.out["harness.timer_ns"]
	_ = sink
}

func (pr *prober) reducersLayer() {
	const n = 1 << 16
	pr.session("reducers probes", func(s *cilkm.Session, c *cilkm.Context) {
		eng := s.Engine()
		hs := make([]*reducers.Add[int64], 4096)
		for i := range hs {
			hs[i] = cilkm.NewAdd[int64](eng)
		}
		rotate := func(mask int) func() {
			return func() {
				for i := 0; i < n; i++ {
					hs[i&mask].Add(c, 1)
				}
			}
		}
		pr.out["reducers.view_hit_ns"] = pr.perOp(n, rotate(0))
		pr.out["reducers.view_rotate64_ns"] = pr.perOp(n, rotate(63))
		pr.out["reducers.view_rotate4k_ns"] = pr.perOp(n, rotate(4095))
		var sink int64
		pr.out["reducers.readview_hit_ns"] = pr.perOp(n, func() {
			for i := 0; i < n; i++ {
				sink += *hs[0].ReadView(c)
			}
		})
		_ = sink

		// A handle-cache miss that the engine answers from an occupied
		// slot: begin a fresh trace (which invalidates the handle caches),
		// fill the engine's slots through LookupWord, then time the first
		// View of each handle.
		miss := hs[:1024]
		w := c.Worker()
		pr.out["reducers.view_miss_ns"] = pr.segments(func() (ns int64, n int) {
			tr := eng.BeginTrace(w)
			for _, h := range miss {
				eng.LookupWord(c, h.Reducer(), 0, true)
			}
			t0 := now()
			for _, h := range miss {
				*h.View(c)++
			}
			ns = now() - t0
			eng.Merge(w, w.CurrentTrace(), eng.EndTrace(w, tr))
			return ns, len(miss)
		})

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const pairs = 256
		var batches int
		pr.out["reducers.new_close_ns"] = pr.perOp(pairs, func() {
			batches++
			for i := 0; i < pairs; i++ {
				cilkm.NewAdd[int64](eng).Close()
			}
		})
		runtime.ReadMemStats(&m1)
		pr.out["reducers.new_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(batches*pairs)
		for _, h := range hs {
			h.Close()
		}
	})
}

// segments calls cycle, which times one segment of n ops inside work it
// does not time, until the budget is spent; it returns the median ns/op.
func (pr *prober) segments(cycle func() (ns int64, n int)) float64 {
	cycle() // warm
	var per []float64
	for deadline := now() + int64(pr.budget); now() < deadline || len(per) < 3; {
		ns, n := cycle()
		per = append(per, (float64(ns)-pr.timer)/float64(n))
	}
	return median(per)
}

// cycleCost is what one begin-lookup-transfer-merge cycle over probeViews
// reducers costs, in ns per view.
type cycleCost struct{ lookup, endTrace, merge float64 }

// traceCycle times the three stages of a trace's life on the calling
// worker: probeViews first lookups in a fresh trace, EndTrace (view
// transferal), and the hypermerge of the deposit — into the enclosing
// trace, or into the leftmost views when root is set.  halves of 0, 1, 2
// make 0, 50, 100 % of the lookups mutable, so that share of the views
// carries the written bit and the rest is elidable.
func (pr *prober) traceCycle(eng cilkm.Engine, c *cilkm.Context, rs []*core.Reducer, halves int, root bool) cycleCost {
	w := c.Worker()
	var look, end, merge []float64
	k := float64(len(rs))
	for deadline, warm := now()+int64(pr.budget), true; now() < deadline || len(look) < 3; warm = false {
		tr := eng.BeginTrace(w)
		t0 := now()
		for i, r := range rs {
			eng.LookupWord(c, r, 0, i&1 < halves)
		}
		t1 := now()
		d := eng.EndTrace(w, tr)
		t2 := now()
		if root {
			eng.MergeRootDeposit(d)
		} else {
			eng.Merge(w, w.CurrentTrace(), d)
		}
		t3 := now()
		if !warm {
			look = append(look, (float64(t1-t0)-pr.timer)/k)
			end = append(end, (float64(t2-t1)-pr.timer)/k)
			merge = append(merge, (float64(t3-t2)-pr.timer)/k)
		}
	}
	return cycleCost{median(look), median(end), median(merge)}
}

func register(eng cilkm.Engine, n int, m func() core.Monoid) []*core.Reducer {
	rs := make([]*core.Reducer, n)
	for i := range rs {
		r, err := eng.Register(m())
		if err != nil {
			panic(fmt.Sprintf("benchmark: Register: %v", err))
		}
		rs[i] = r
	}
	return rs
}

type int64Sum struct{}

func (int64Sum) Identity() *int64 { return new(int64) }
func (int64Sum) Reduce(l, r *int64) *int64 {
	*l += *r
	return l
}

// arenaMonoid is an arena-class monoid (int64 sum) for raw registration.
func arenaMonoid() core.Monoid { return reducers.AdaptMonoid[int64](int64Sum{}) }

func unregister(eng cilkm.Engine, rs []*core.Reducer) {
	for _, r := range rs {
		eng.Unregister(r)
	}
}

// engineProbes times the engine-level operations of one mechanism; prefix
// is "core" or "hypermap".
func (pr *prober) engineProbes(prefix string, s *cilkm.Session, c *cilkm.Context) {
	const n = 1 << 16
	eng := s.Engine()
	rs := register(eng, probeReducers, arenaMonoid)
	for _, r := range rs {
		eng.LookupWord(c, r, 0, true)
	}
	hit := func(mutable bool) func() {
		return func() {
			for i := 0; i < n; i++ {
				word, _ := eng.LookupWord(c, rs[i&(probeReducers-1)], 0, mutable)
				*int64At(word)++
			}
		}
	}
	pr.out[prefix+".probe_ns"] = pr.perOp(n, hit(true))
	if prefix == "core" {
		pr.out["core.probe_ro_ns"] = pr.perOp(n, hit(false))
	}
	views := rs[:probeViews]
	full := pr.traceCycle(eng, c, views, 2, false)
	pr.out[prefix+".end_trace_ns_per_view"] = full.endTrace
	pr.out[prefix+".merge_w100_ns_per_view"] = full.endTrace + full.merge
	if prefix == "core" {
		pr.out["core.first_lookup_arena_ns"] = full.lookup
		half := pr.traceCycle(eng, c, views, 1, false)
		none := pr.traceCycle(eng, c, views, 0, false)
		pr.out["core.merge_w50_ns_per_view"] = half.endTrace + half.merge
		pr.out["core.merge_w0_ns_per_view"] = none.endTrace + none.merge
		pr.out["core.root_merge_ns_per_view"] = pr.traceCycle(eng, c, views, 2, true).merge
		heap := register(eng, probeViews, pbfs.BagMonoid)
		pr.out["core.first_lookup_heap_ns"] = pr.traceCycle(eng, c, heap, 2, false).lookup
		unregister(eng, heap)
	} else {
		pr.out["hypermap.first_lookup_ns"] = full.lookup
	}
	unregister(eng, rs)

	// Registration churn with 64 reducers live.
	live := register(eng, 64, arenaMonoid)
	const churn = 64
	batch := make([]*core.Reducer, churn)
	pr.out[prefix+".register_ns"] = pr.segments(func() (int64, int) {
		t0 := now()
		for i := range batch {
			batch[i], _ = eng.Register(arenaMonoid())
		}
		ns := now() - t0
		unregister(eng, batch)
		return ns, churn
	})
	if prefix == "core" {
		pr.out["core.unregister_ns"] = pr.segments(func() (int64, int) {
			for i := range batch {
				batch[i], _ = eng.Register(arenaMonoid())
			}
			t0 := now()
			unregister(eng, batch)
			return now() - t0, churn
		})
		const sessions = 32
		pr.out["core.retire_ns_per_reducer"] = pr.segments(func() (int64, int) {
			var jss [sessions]*cilkm.JobSession
			for i := range jss {
				jss[i] = core.NewJobSession(eng)
				for j := 0; j < jobReducers; j++ {
					cilkm.NewAdd[int64](jss[i])
				}
			}
			t0 := now()
			for _, js := range jss {
				js.Retire()
			}
			return now() - t0, sessions * jobReducers
		})
	}
	unregister(eng, live)
}

func (pr *prober) coreLayer() {
	pr.session("core probes", func(s *cilkm.Session, c *cilkm.Context) {
		pr.engineProbes("core", s, c)
	})
	pr.session("tlmm probe", func(s *cilkm.Session, c *cilkm.Context) {
		rs := register(s.Engine(), probeViews, arenaMonoid)
		pr.out["tlmm.model_first_lookup_ns"] = pr.traceCycle(s.Engine(), c, rs, 2, false).lookup
		unregister(s.Engine(), rs)
	}, cilkm.WithModelAddressSpace())

	// Register/Unregister pairs from W goroutines at once, 64 live.
	eng := cilkm.NewEngineWith(cilkm.WithWorkers(pr.pl.p.workers))
	live := register(eng, 64, arenaMonoid)
	const pairs = 4096
	var wg sync.WaitGroup
	t0 := now()
	for g := 0; g < pr.pl.p.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				r, _ := eng.Register(arenaMonoid())
				eng.Unregister(r)
			}
		}()
	}
	wg.Wait()
	pr.out["core.register_contended_ns"] = float64(now()-t0) / pairs
	unregister(eng, live)
	pr.check("contended registration", eng.Quiescent())
}

func (pr *prober) hypermapLayer() {
	pr.session("hypermap probes", func(s *cilkm.Session, c *cilkm.Context) {
		pr.engineProbes("hypermap", s, c)
	}, cilkm.WithMechanism(cilkm.Hypermap))
	hm := pr.pl.p
	hm.mech = cilkm.Hypermap
	for _, name := range []string{"update_probe", "trace_cycle"} {
		def, _ := findWorkload(name)
		pr.out["hypermap."+name+"_ops_s"] = pr.short(def.name+" on hypermap", def.build(hm))
	}
}

// short runs a shortened repeat of a built workload, with its checks, and
// returns its throughput.
func (pr *prober) short(what string, inst instance) float64 {
	var t tally
	inst.warm(&record{})
	rate := t.timedRepeat(inst, pr.leg, nil, 1)
	t.settle(inst.finish())
	if t.rec.failed > 0 {
		pr.errs = append(pr.errs, fmt.Errorf("%s: %s", what, t.rec.first))
	}
	return rate
}

func (pr *prober) schedLayer() {
	w := pr.pl.p.workers
	s := cilkm.New(cilkm.WithWorkers(w))
	empty := func(*cilkm.Context) {}
	const n = 1 << 14
	pr.check("sched probes", s.Run(func(c *cilkm.Context) {
		pr.out["sched.fork_ns"] = pr.perOp(n, func() {
			for i := 0; i < n; i++ {
				c.Fork(empty, empty)
			}
		})
		body := func(*cilkm.Context, int) {}
		pr.out["sched.pfor_iter_ns"] = pr.perOp(n, func() { c.ParallelForGrain(0, n, 1, body) })
	}))
	const runs = 64
	pr.out["sched.run_empty_us"] = pr.perOp(runs, func() {
		for i := 0; i < runs; i++ {
			pr.check("empty Run", s.Run(empty))
		}
	}) / 1e3
	pr.check("sched probes", s.Quiescent())
	s.Close()

	svc := cilkm.NewService(cilkm.WithWorkers(w))
	ctx := context.Background()
	job := func(*cilkm.Context, *cilkm.JobSession) {}
	pr.out["sched.submit_wait_empty_us"] = pr.perOp(runs, func() {
		for i := 0; i < runs; i++ {
			h, err := svc.Submit(ctx, job)
			if err == nil {
				err = h.Wait()
			}
			pr.check("empty Submit+Wait", err)
		}
	}) / 1e3
	pr.check("empty service", svc.Close())

	// Paper Fig. 6: the W-worker run against the one-worker run, and the
	// one-worker run against the same updates on a plain padded array.
	one := pr.pl.p
	one.workers = 1
	hot, _ := findWorkload("update_hot")
	rateW := pr.short("update_hot at W", hot.build(pr.pl.p))
	rate1 := pr.short("update_hot at 1 worker", hot.build(one))
	pr.out["sched.speedup_w_over_1.update_hot"] = ratio(rateW, rate1)
	pr.out["sched.serial_overhead.update_hot"] = ratio(1e9/pr.plainArrayNS(), rate1)
}

// plainArrayNS is update_hot's loop with the reducers replaced by a plain
// array of cache-line-padded cells: the serial code a reducer stands in for.
func (pr *prober) plainArrayNS() float64 {
	type cell struct {
		v int64
		_ [56]byte
	}
	cells := make([]cell, hotHandles)
	vals := pr.pl.p.rng(1)
	var tab [chunkLen]int64
	for i := range tab {
		tab[i] = 1 + vals.Int64N(4)
	}
	return pr.perOp(blockUpdates, func() {
		for k := 0; k < chunksPerBlock; k++ {
			for j := 0; j < chunkLen; j++ {
				cells[j&(hotHandles-1)].v += tab[j]
			}
		}
	})
}

func (pr *prober) spaLayer() {
	const n = 1 << 16
	owner := wordOf(new(int64))
	views := make([]int64, probeViews)
	// Like a registered reducer, each view keeps its address decomposed
	// into page and slot: SlotsPerMap is not a power of two.
	var pages, slots [probeViews]int
	src, dst := spa.NewMapSet(), spa.NewMapSet()
	for i := range views {
		addr := spa.Addr(i)
		pages[i], slots[i] = addr.Page(), addr.Slot()
		pr.check("spa insert", src.Insert(addr, wordOf(&views[i]), owner, spa.FlagWritten))
	}
	var hits int
	pr.out["spa.probe_ns"] = pr.perOp(n, func() {
		for i := 0; i < n; i++ {
			k := i & (probeViews - 1)
			if src.Probe(pages[k], slots[k]).FastHit(owner, true) {
				hits++
			}
		}
	})
	if hits == 0 {
		pr.check("spa probe", fmt.Errorf("no probe hit"))
	}
	spare := spa.Addr(probeViews)
	pr.out["spa.insert_remove_ns"] = pr.perOp(n, func() {
		for i := 0; i < n; i++ {
			_ = src.Insert(spare, wordOf(&views[0]), owner, 0)
			_, _ = src.Remove(spare)
		}
	})
	pr.out["spa.transfer_ns_per_view"] = pr.perOp(2*probeViews, func() {
		_, err1 := src.TransferTo(dst)
		_, err2 := dst.TransferTo(src)
		pr.check("spa transfer", err1, err2)
	})
}

func (pr *prober) pagepoolLayer() {
	const n = 1 << 12
	pool := pagepool.New(1, spa.New)
	pool.Prime(16)
	pr.out["pagepool.get_put_ns"] = pr.perOp(n, func() {
		for i := 0; i < n; i++ {
			pool.Put(0, pool.Get(0))
		}
	})
	pr.out["pagepool.getn_putn_ns_per_page"] = pr.perOp(8*n, func() {
		for i := 0; i < n; i++ {
			pool.PutN(0, pool.GetN(0, 8))
		}
	})
	if out := pool.Stats().Outstanding(); out != 0 {
		pr.check("pagepool", fmt.Errorf("%d pages outstanding", out))
	}
}

func (pr *prober) bagLayer() {
	const n = 1 << 14
	pr.out["bag.insert_ns"] = pr.perOp(n, func() {
		b := bag.New[int32]()
		for i := int32(0); i < n; i++ {
			b.Insert(i)
		}
	})
	const pairs, size = 32, 4096
	pr.out["bag.union_ns"] = pr.segments(func() (int64, int) {
		var bs [2 * pairs]*bag.Bag[int32]
		for i := range bs {
			bs[i] = bag.New[int32]()
			for v := int32(0); v < size; v++ {
				bs[i].Insert(v)
			}
		}
		t0 := now()
		for i := 0; i < pairs; i++ {
			bs[2*i].Union(bs[2*i+1])
		}
		return now() - t0, pairs
	})
}

// pbfsLayer generates the grid once and runs every shortened PBFS leg on
// it: the serial reference, one worker, W workers, and the hypermap engine.
func (pr *prober) pbfsLayer() {
	n := gridSide(pr.pl.p)
	t0 := now()
	g := graph.Grid3D(n, n, n)
	pr.out["graph.gen_s"] = float64(now()-t0) / 1e9
	edges := float64(g.NumEdges())

	wl := newPBFSOn(pr.pl.p, g, n)
	serial := pr.perOp(1, func() { pbfs.Serial(g, wl.source) })
	pr.out["pbfs.serial_edges_s"] = edges / serial * 1e9
	before := wl.s.Runtime().Stats().RootTasks
	rateW := pr.short("pbfs_grid at W", wl)
	pr.out["pbfs.runs_per_bfs"] = ratio(float64(wl.s.Runtime().Stats().RootTasks-before), float64(wl.bfs))

	one, hm := pr.pl.p, pr.pl.p
	one.workers = 1
	hm.mech = cilkm.Hypermap
	rate1 := pr.short("pbfs_grid at 1 worker", newPBFSOn(one, g, n))
	pr.out["sched.speedup_w_over_1.pbfs_grid"] = ratio(rateW, rate1)
	pr.out["sched.serial_overhead.pbfs_grid"] = ratio(pr.out["pbfs.serial_edges_s"], rate1)
	pr.out["hypermap.pbfs_grid_ops_s"] = pr.short("pbfs_grid on hypermap", newPBFSOn(hm, g, n))
}

// metricsLayer prices looking: one Gather, and update_hot's throughput
// with an exporter attached and scraped every 10 ms against without.
func (pr *prober) metricsLayer() {
	exp := cilkm.NewExporter()
	svc := cilkm.NewService(cilkm.WithWorkers(pr.pl.p.workers), cilkm.WithMetricsExporter(exp))
	const n = 16
	var samples int
	pr.out["metrics.gather_us"] = pr.perOp(n, func() {
		for i := 0; i < n; i++ {
			samples += len(exp.Gather())
		}
	}) / 1e3
	if samples == 0 {
		pr.check("metrics", fmt.Errorf("Gather returned no samples"))
	}
	pr.check("metrics service", svc.Close())

	hot, _ := findWorkload("update_hot")
	scraped := pr.pl.p
	scraped.exporter = cilkm.NewExporter()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				scraped.exporter.Gather()
			}
		}
	}()
	with := pr.short("update_hot scraped", hot.build(scraped))
	close(stop)
	<-done
	without := pr.short("update_hot unscraped", hot.build(pr.pl.p))
	pr.out["metrics.scrape_slowdown_ratio"] = ratio(without, with)
}

// serviceSpans runs a shortened service_open, one repeat untraced for the
// generator's lateness and one with the client side's per-job spans
// recorded, and reports where a job's time goes.
func (pr *prober) serviceSpans() {
	open := newService(pr.pl.p, true, openRate)
	var t tally
	open.warm(&record{})
	t.timedRepeat(open, pr.leg, nil, 1)
	var d detail
	if invalid := lagStats(&d, &t.rec, openRate); invalid != "" {
		pr.errs = append(pr.errs, fmt.Errorf("shortened service_open: %s", invalid))
	}
	pr.out["harness.gen_lag_p99_us"] = d.GenLagP99US
	pr.out["harness.slo_miss_ratio"] = d.SLOMissRatio
	tr := &tracer{}
	t.timedRepeat(open, pr.leg, tr, 1)
	jobSpanMetrics(pr.out, tr.spans)
	t.settle(open.finish())
	if t.rec.failed > 0 {
		pr.errs = append(pr.errs, fmt.Errorf("shortened service_open: %s", t.rec.first))
	}
}

// sweepRates are the open loop's fixed arrival rates, jobs per second.
var sweepRates = []float64{5000, 15000, 30000, 45000}

// serviceSweep runs the open loop at each fixed rate and reports the
// highest one that meets the latency limit: nothing refused, p99 within
// sloNS, and no growing backlog — the last tenth of the arrivals must not
// wait longer than the limit either.
func (pr *prober) serviceSweep() {
	best := 0.0
	for _, rate := range sweepRates {
		inst := newService(pr.pl.p, true, rate)
		var r record
		inst.warm(&record{})
		inst.repeat(pr.leg, &r)
		pr.check(fmt.Sprintf("open loop at %.0f/s", rate), inst.finish()...)
		if n := len(r.lat); r.failed == 0 && n > 0 {
			last := slices.Clone(r.lat[n-n/10-1:])
			slices.Sort(last)
			slices.Sort(r.lat)
			p99, _, _ := tail(r.lat, 0.99)
			if lastP50, _ := percentile(last, 0.5); p99 <= sloNS && lastP50 <= sloNS {
				best = rate
				continue
			}
		}
		break
	}
	pr.out["sched.max_rate_within_slo"] = best
}
