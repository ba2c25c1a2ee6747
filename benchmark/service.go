package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cilkm "repro"
	"repro/internal/reducers"
)

const (
	openRate    = 15000.0 // service_open arrivals per second
	jobReducers = 8
	jobIters    = 64
	jobGrain    = 4
	jobSpin     = 40
	// sloNS is the latency limit of the open loop: a job later than this,
	// counted from its due time, or refused, misses it.
	sloNS = int64(time.Millisecond)
	// clientRoom is the jobs per second a closed-loop client's stamp buffer
	// has room for without growing: five times what one achieves here.
	clientRoom = 100e3
	// openQueue bounds the open loop's admission queue well above any
	// backlog a sustainable rate builds, so a refusal means overload and
	// not a Poisson burst meeting the default bound of 4× workers.
	openQueue = 1 << 14
)

// jobStamps is what the client side records about one job, all in ns on
// the benchmark's clock.  body0 and body1 are stamped only when tracing.
type jobStamps struct {
	due              int64 // open loop: when the arrival was scheduled
	submit0, submit1 int64 // around the Submit call
	body0, body1     int64 // first and last line of the job
	done             int64 // OnDone, or Wait's return in the untraced closed loop
	refused, failed  bool
}

// latency is what the job's client saw.  The open loop charges it from
// the due time, so a generator or queue stall is paid by every arrival it
// delays; the closed loop has no due time and counts from the Submit call.
func (st *jobStamps) latency(open bool) int64 {
	if open {
		return st.done - st.due
	}
	return st.done - st.submit0
}

// poissonSchedule returns the due offsets, in ns from the start of the
// window, of a Poisson arrival process at rate per second.  It is a pure
// function of its arguments.
func poissonSchedule(seed, stream uint64, rate float64, window time.Duration) []int64 {
	rng := rand.New(rand.NewPCG(seed, stream))
	var due []int64
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(window) {
			return due
		}
		due = append(due, int64(t))
	}
}

// openLoop submits arrival i once clock reaches start+due[i], never
// earlier, and never waits for a completion: a stalled submit delays the
// arrivals behind it but does not move their due times.
func openLoop(start int64, due []int64, clock func() int64, submit func(st *jobStamps)) []jobStamps {
	stamps := make([]jobStamps, len(due))
	for i := range due {
		st := &stamps[i]
		st.due = start + due[i]
		t := clock()
		for t < st.due {
			t = clock()
		}
		st.submit0 = t
		submit(st)
	}
	return stamps
}

// serviceWL is service_closed and service_open: small jobs through the
// resident service, each registering its own reducers on its JobSession.
type serviceWL struct {
	p        params
	open     bool
	rate     float64
	svc      *cilkm.Service
	x0       uint64 // leaf input, from the seed
	expected int64  // the total every job must read
	wrong    atomic.Int64
	windows  uint64 // open-loop windows run, one schedule stream each
}

func newService(p params, open bool, rate float64) instance {
	w := &serviceWL{p: p, open: open, rate: rate, x0: p.rng(1).Uint64()}
	for k := 0; k < jobIters; k++ {
		w.expected += leafValue(w.x0, k)
	}
	if open {
		p.workers = max(1, p.workers-1) // the generator owns a core
		w.svc = cilkm.NewService(p.options(cilkm.WithAdmitPolicy(cilkm.AdmitReject), cilkm.WithQueueBound(openQueue))...)
	} else {
		w.svc = cilkm.NewService(p.options(cilkm.WithAdmitPolicy(cilkm.AdmitBlock))...)
	}
	return w
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// leafValue is the job's leaf: jobSpin xorshift steps, then 1 or 2.
func leafValue(x0 uint64, k int) int64 {
	x := (x0 + uint64(k)*0x9E3779B97F4A7C15) | 1
	for s := 0; s < jobSpin; s++ {
		x = xorshift(x)
	}
	return 1 + int64(x&1)
}

// job is the submitted closure; st is nil unless tracing.
func (w *serviceWL) job(st *jobStamps) func(*cilkm.Context, *cilkm.JobSession) {
	return func(c *cilkm.Context, js *cilkm.JobSession) {
		if st != nil {
			st.body0 = now()
		}
		var rs [jobReducers]*reducers.Add[int64]
		for i := range rs {
			rs[i] = cilkm.NewAdd[int64](js)
		}
		x0 := w.x0
		c.ParallelForGrain(0, jobIters, jobGrain, func(c *cilkm.Context, k int) {
			rs[k%jobReducers].Add(c, leafValue(x0, k))
		})
		var total int64
		for _, r := range rs {
			total += *r.View(c) // in-trace read: every join has merged by now
		}
		if total != w.expected {
			w.wrong.Add(1)
		}
		if st != nil {
			st.body1 = now()
		}
	}
}

// warm runs a fixed number of jobs back to back, whichever loop follows,
// so that set-up time measures the runtime and not a schedule.
func (w *serviceWL) warm(r *record) {
	ctx := context.Background()
	fn := w.job(nil)
	for i, n := 0, w.p.pick(4000, 40); i < n; i++ {
		r.attempted++
		h, err := w.svc.Submit(ctx, fn)
		if err == nil {
			err = h.Wait()
		}
		if err != nil {
			r.fail(1, "warm-up job %d: %v", i, err)
		}
	}
}

func (w *serviceWL) repeat(d time.Duration, r *record) {
	wrong := w.wrong.Load()
	var stamps []jobStamps
	if w.open {
		stamps = w.openWindow(d, r)
	} else {
		stamps = w.closedWindow(d, r)
	}
	for i := range stamps {
		st := &stamps[i]
		r.attempted++
		switch {
		case st.refused:
			r.fail(1, "Submit refused job %d", i)
		case st.failed:
			r.fail(1, "job %d completed with an error", i)
		default:
			r.ops++
			r.lat = append(r.lat, st.latency(w.open))
		}
		if w.open {
			r.lag = append(r.lag, st.submit0-st.due)
			if st.refused || st.failed || st.latency(true) > sloNS {
				r.slow++
			}
		}
		if r.tr != nil && !st.refused {
			w.spans(r.tr, st, int64(i))
		}
	}
	if n := w.wrong.Load() - wrong; n > 0 {
		r.ops -= n
		r.fail(n, "%d jobs read a total other than %d", n, w.expected)
	}
}

// spans turns one job's stamps into its span tree.
func (w *serviceWL) spans(tr *tracer, st *jobStamps, op int64) {
	begin := st.submit0
	if w.open {
		begin = st.due
	}
	root := tr.add("job", begin, st.done, -1, op)
	if w.open {
		tr.add("gen_lag", st.due, st.submit0, root, op)
	}
	tr.add("Submit", st.submit0, st.submit1, root, op)
	// A worker can pick the job up before Submit has returned.
	tr.add("queue_wait", min(st.submit1, st.body0), st.body0, root, op)
	tr.add("job_body", st.body0, st.body1, root, op)
	tr.add("settle", st.body1, st.done, root, op)
}

// closedWindow runs one client goroutine per worker, each submitting its
// next job when the previous one's Wait returns.
func (w *serviceWL) closedWindow(d time.Duration, r *record) []jobStamps {
	perClient := make([][]jobStamps, w.p.workers)
	traced := r.tr != nil
	start := now()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for g := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient[g] = w.client(deadline, traced, int(d.Seconds()*clientRoom)+1024)
		}()
	}
	wg.Wait()
	r.busy += now() - start
	var all []jobStamps
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// client runs one closed-loop client until deadline; room sizes its stamp
// buffer so that it does not grow inside the timed window.
func (w *serviceWL) client(deadline int64, traced bool, room int) []jobStamps {
	ctx := context.Background()
	stamps := make([]jobStamps, 0, room)
	fn := w.job(nil)
	for t := now(); t < deadline; {
		stamps = append(stamps, jobStamps{submit0: t})
		st := &stamps[len(stamps)-1]
		var opts []cilkm.JobOption
		if traced {
			fn = w.job(st)
			opts = []cilkm.JobOption{cilkm.WithOnDone(func(error) { st.done = now() })}
		}
		h, err := w.svc.Submit(ctx, fn, opts...)
		if traced {
			st.submit1 = now()
		}
		if err != nil {
			st.refused = true
			t = now()
			continue
		}
		st.failed = h.Wait() != nil
		t = now()
		if !traced {
			st.done = t
		}
	}
	return stamps
}

// openWindow runs the generator on a locked OS thread, spin-paced against
// the absolute due times of a Poisson schedule drawn from the seed.
func (w *serviceWL) openWindow(d time.Duration, r *record) []jobStamps {
	w.windows++
	due := poissonSchedule(w.p.seed, w.windows, w.rate, d)
	traced := r.tr != nil
	ctx := context.Background()
	fn := w.job(nil)
	var admitted int
	var completed atomic.Int64
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := now()
	stamps := openLoop(start, due, now, func(st *jobStamps) {
		if traced {
			fn = w.job(st)
		}
		_, err := w.svc.Submit(ctx, fn, cilkm.WithOnDone(func(err error) {
			st.done = now()
			st.failed = err != nil
			completed.Add(1)
		}))
		if traced {
			st.submit1 = now()
		}
		if err != nil {
			st.refused = true
			return
		}
		admitted++
	})
	for guard := now() + int64(30*time.Second); completed.Load() < int64(admitted); {
		if now() > guard {
			// Jobs still running 30 s after the last arrival count as failed.
			for i := range stamps {
				stamps[i].failed = stamps[i].failed || stamps[i].done == 0
			}
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	end := start
	for i := range stamps {
		end = max(end, stamps[i].done)
	}
	r.busy += end - start
	return stamps
}

func (w *serviceWL) finish() []error {
	var errs []error
	if n := w.wrong.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d jobs read a total other than %d", n, w.expected))
	}
	if err := w.svc.Close(); err != nil {
		errs = append(errs, fmt.Errorf("Service.Close: %w", err))
	}
	return errs
}

func (w *serviceWL) counters() counters { return snapshot(w.svc.Engine(), w.svc.Runtime(), w.svc) }
