package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestService builds a small service over a fresh runtime.
func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	return NewService(Config{Workers: 4}, cfg)
}

// occupy keeps the one worker of s busy with a job until the returned
// function is called, which then waits for that job to finish.
func occupy(t *testing.T, s *Service) (release func()) {
	t.Helper()
	ch, ran := make(chan struct{}), make(chan struct{})
	blocker, err := s.Submit(context.Background(), JobSpec{Fn: func(*Context) {
		close(ran)
		<-ch
	}})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-ran
	return func() {
		close(ch)
		if err := blocker.Wait(); err != nil {
			t.Fatalf("blocker: %v", err)
		}
	}
}

// TestRunOnServiceRuntimeRefused: every worker of a service's runtime is a
// pool goroutine, so there is no worker 0 to lend a caller.  Run, RunErr and
// RunContext on it run nothing and return the named error.
func TestRunOnServiceRuntimeRefused(t *testing.T) {
	s := NewService(Config{Workers: 2}, ServiceConfig{})
	rt := s.Runtime()
	var ran atomic.Bool
	job := func(*Context) { ran.Store(true) }
	if err := rt.Run(job); !errors.Is(err, errServiceRuntime) {
		t.Errorf("Run = %v, want %v", err, errServiceRuntime)
	}
	if err := rt.RunErr(job); !errors.Is(err, errServiceRuntime) {
		t.Errorf("RunErr = %v, want %v", err, errServiceRuntime)
	}
	if err := rt.RunContext(context.Background(), job); !errors.Is(err, errServiceRuntime) {
		t.Errorf("RunContext = %v, want %v", err, errServiceRuntime)
	}
	if ran.Load() || rt.Stats().RootTasks != 0 {
		t.Errorf("a refused Run ran its job (%v) or counted a root (%d)", ran.Load(), rt.Stats().RootTasks)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceEvictionLeavesNoEntry: a cancelled job leaves the admission
// queue at the moment it is evicted, so a queue whose every job was
// cancelled holds no entry at all, however few were cancelled.
func TestServiceEvictionLeavesNoEntry(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 16})
	release := occupy(t, s)
	var ran atomic.Int64
	hs := make([]*JobHandle, 16)
	for i := range hs {
		h, err := s.Submit(context.Background(), JobSpec{Fn: func(*Context) { ran.Add(1) }})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		hs[i] = h
	}
	for _, h := range hs {
		h.Cancel()
	}
	s.mu.Lock()
	entries := 0
	for h := s.queue.next; h != &s.queue; h = h.next {
		entries++
	}
	s.mu.Unlock()
	if entries != 0 || s.Stats().QueueDepth != 0 {
		t.Errorf("queue holds %d entries (depth %d) after every queued job was cancelled, want 0", entries, s.Stats().QueueDepth)
	}
	release()
	for i, h := range hs {
		if err := h.Wait(); !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: %v, want context.Canceled", i, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d cancelled jobs ran", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceSubmitConcurrent drives many concurrent submitters through one
// service and checks every job ran exactly once with a correct result.
func TestServiceSubmitConcurrent(t *testing.T) {
	s := newTestService(t, ServiceConfig{Queue: 8})
	const jobs = 64
	var total atomic.Int64
	var wg sync.WaitGroup
	handles := make([]*JobHandle, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
				var sum atomic.Int64
				c.ParallelFor(0, 100, func(c *Context, j int) { sum.Add(1) })
				total.Add(sum.Load())
			}})
			handles[i], errs[i] = h, err
		}()
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: Submit failed: %v", i, errs[i])
		}
		if err := handles[i].Wait(); err != nil {
			t.Fatalf("job %d: Wait: %v", i, err)
		}
	}
	if got := total.Load(); got != jobs*100 {
		t.Fatalf("total = %d, want %d", got, jobs*100)
	}
	st := s.Stats()
	if st.Admitted != jobs || st.Settled != jobs {
		t.Fatalf("stats admitted=%d settled=%d, want %d/%d", st.Admitted, st.Settled, jobs, jobs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceSettlesBeforeDelivery pins the settle-then-deliver order: by
// the time a job's OnDone runs, and so before its Wait returns, the job is
// already counted settled and no longer running, whether it succeeded or
// panicked.
func TestServiceSettlesBeforeDelivery(t *testing.T) {
	for name, fn := range map[string]func(*Context){
		"success": func(c *Context) {},
		"panic":   func(c *Context) { panic("settle-order boom") },
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestService(t, ServiceConfig{})
			var seen ServiceStats
			h, err := s.Submit(context.Background(), JobSpec{Fn: fn, OnDone: func(error) { seen = s.Stats() }})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			_ = h.Wait()
			if seen.Settled != 1 || seen.Running != 0 {
				t.Errorf("OnDone saw Settled=%d Running=%d, want 1 and 0", seen.Settled, seen.Running)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestServicePanicContainment checks one tenant's panic surfaces as a
// *PanicError on its own handle and perturbs nothing else.
func TestServicePanicContainment(t *testing.T) {
	s := newTestService(t, ServiceConfig{})
	bad, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
		c.Fork(func(c *Context) { panic("tenant blew up") }, func(c *Context) {})
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var sum atomic.Int64
	good, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
		c.ParallelFor(0, 1000, func(c *Context, i int) { sum.Add(1) })
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	werr := bad.Wait()
	var pe *PanicError
	if !errors.As(werr, &pe) || pe.Value != "tenant blew up" {
		t.Fatalf("bad job error = %v, want PanicError(tenant blew up)", werr)
	}
	if err := good.Wait(); err != nil {
		t.Fatalf("good job: %v", err)
	}
	if sum.Load() != 1000 {
		t.Fatalf("good job sum = %d, want 1000", sum.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceAdmitReject saturates a 1-slot queue on a blocked pool and
// checks the reject policy answers ErrOverloaded within bounded time while
// the in-flight job still completes correctly.
func TestServiceAdmitReject(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 1, Admit: AdmitReject})
	release := occupy(t, s)
	queued, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	start := time.Now()
	if _, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload Submit error = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("reject took %v, want immediate", d)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	release()
	if err := queued.Wait(); err != nil {
		t.Fatalf("queued: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceAdmitBlock checks the block policy holds the submitter until
// space frees, and that a blocked submitter's context cancellation fails
// the submission with the context's error.
func TestServiceAdmitBlock(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 1, Admit: AdmitBlock})
	release := occupy(t, s)
	queued, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	// A submitter with a cancelled context must not block forever.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) {}})
		cancelled <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block on the full queue
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled blocked Submit error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit ignored its context cancellation")
	}

	// A patient submitter gets in once the queue drains.
	blocked := make(chan *JobHandle, 1)
	go func() {
		h, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}})
		if err != nil {
			t.Errorf("blocked Submit: %v", err)
		}
		blocked <- h
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	if err := queued.Wait(); err != nil {
		t.Fatalf("queued: %v", err)
	}
	select {
	case h := <-blocked:
		if err := h.Wait(); err != nil {
			t.Fatalf("blocked job: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit never unblocked after space freed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceFIFOOrder checks queued jobs dispatch in submission order.
func TestServiceFIFOOrder(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 8})
	release := occupy(t, s)
	var mu sync.Mutex
	var order []int
	hs := make([]*JobHandle, 6)
	for i := range hs {
		h, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		hs[i] = h
	}
	release()
	for i, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, tag := range order {
		if tag != i {
			t.Fatalf("dispatch order = %v, want submission order", order)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceDeadline checks a queued job whose submission context's
// deadline expires before a worker takes it completes with
// context.DeadlineExceeded and never runs.
func TestServiceDeadline(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 4})
	release := occupy(t, s)
	var doomedRan atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	doomed, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) { doomedRan.Store(true) }})
	if err != nil {
		t.Fatalf("Submit doomed: %v", err)
	}
	if werr := doomed.Wait(); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("doomed error = %v, want DeadlineExceeded", werr)
	}
	if doomedRan.Load() {
		t.Fatal("expired job ran anyway")
	}
	release()
	if got := s.Stats().DeadlineMisses; got != 1 {
		t.Fatalf("DeadlineMisses = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceDeadlineExpiredAtSubmit submits jobs whose deadline passes
// while Submit is arming them, so the context watcher can fire while Submit
// is still storing the watcher's stop function.  Every outcome is either a
// run or DeadlineExceeded (from Submit itself when the deadline beat it);
// under -race it pins that the watcher's cancellation is ordered after that
// store.
func TestServiceDeadlineExpiredAtSubmit(t *testing.T) {
	s := newTestService(t, ServiceConfig{Queue: 8})
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%8)*250*time.Nanosecond)
		h, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) {}})
		if errors.Is(err, context.DeadlineExceeded) {
			cancel()
			continue
		}
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		werr := h.Wait()
		cancel()
		if werr != nil && !errors.Is(werr, context.DeadlineExceeded) {
			t.Fatalf("job %d: %v, want nil or DeadlineExceeded", i, werr)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceRunningDeadline checks a deadline firing mid-execution unblocks
// the waiter with DeadlineExceeded while the job unwinds at its checkpoints
// and the pool settles to quiescence.
func TestServiceRunningDeadline(t *testing.T) {
	s := newTestService(t, ServiceConfig{Queue: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	h, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) {
		for i := 0; i < 1_000_000; i++ {
			c.Fork(func(c *Context) { time.Sleep(50 * time.Microsecond) },
				func(c *Context) { time.Sleep(50 * time.Microsecond) })
		}
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if werr := h.Wait(); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded", werr)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close (quiescence): %v", err)
	}
}

// TestServiceCancelHandle checks JobHandle.Cancel evicts a queued job with
// context.Canceled.
func TestServiceCancelHandle(t *testing.T) {
	s := NewService(Config{Workers: 1}, ServiceConfig{Queue: 4})
	release := occupy(t, s)
	var victimRan atomic.Bool
	victim, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) { victimRan.Store(true) }})
	if err != nil {
		t.Fatalf("Submit victim: %v", err)
	}
	victim.Cancel()
	if werr := victim.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled error = %v, want context.Canceled", werr)
	}
	if victimRan.Load() {
		t.Fatal("cancelled job ran")
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceWatchdogStall submits a job that makes no scheduler-visible
// progress (a serial poll loop, no forks) and checks the watchdog cancels
// it with a *StallError carrying a stack dump, then the pool drains clean.
func TestServiceWatchdogStall(t *testing.T) {
	s := newTestService(t, ServiceConfig{Queue: 4, Watchdog: 50 * time.Millisecond})
	h, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
		// A recoverable stall: spin until the watchdog's cancellation is
		// visible through the polling API, making no steal/merge progress.
		for !c.Cancelled() {
			time.Sleep(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	werr := h.Wait()
	if !errors.Is(werr, ErrStalled) {
		t.Fatalf("error = %v, want ErrStalled", werr)
	}
	var se *StallError
	if !errors.As(werr, &se) {
		t.Fatalf("error %v does not unwrap to *StallError", werr)
	}
	if se.Window != 50*time.Millisecond {
		t.Fatalf("StallError.Window = %v, want 50ms", se.Window)
	}
	if len(se.Stack) == 0 {
		t.Fatal("StallError.Stack is empty, want goroutine stacks")
	}
	if got := s.Stats().WatchdogCancels; got != 1 {
		t.Fatalf("WatchdogCancels = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close (quiescence): %v", err)
	}
}

// TestServiceWatchdogSparesLiveJobs checks a job that keeps forking past
// the watchdog window is NOT cancelled: progress resets the stall clock.
func TestServiceWatchdogSparesLiveJobs(t *testing.T) {
	s := newTestService(t, ServiceConfig{Queue: 4, Watchdog: 60 * time.Millisecond})
	h, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			c.ParallelFor(0, 64, func(c *Context, i int) { time.Sleep(time.Millisecond) })
		}
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if werr := h.Wait(); werr != nil {
		t.Fatalf("live job cancelled: %v", werr)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceSubmitAfterClose checks the deterministic ErrClosed contract.
func TestServiceSubmitAfterClose(t *testing.T) {
	s := newTestService(t, ServiceConfig{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Idempotent Close returns the first verdict.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServiceCloseRacingSubmit is the multi-job twin of TestCloseRacingRun:
// Close races a burst of concurrent Submit calls.  Every submission must
// either be admitted (and its handle complete) or deterministically return
// ErrClosed — never deadlock, never leak a queued job — and the drained
// pool must verify quiescent.
func TestServiceCloseRacingSubmit(t *testing.T) {
	for round := 0; round < 30; round++ {
		s := NewService(Config{Workers: 4}, ServiceConfig{Queue: 4})
		const callers = 8
		var wg sync.WaitGroup
		handles := make([]*JobHandle, callers)
		errs := make([]error, callers)
		for g := 0; g < callers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				handles[g], errs[g] = s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {
					c.ParallelForGrain(0, 32, 1, func(c *Context, i int) {
						time.Sleep(time.Microsecond)
					})
				}})
			}()
		}
		time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		wg.Wait()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close hung racing Submit", round)
		}
		for g := 0; g < callers; g++ {
			if errs[g] != nil {
				if !errors.Is(errs[g], ErrClosed) {
					t.Fatalf("round %d: caller %d Submit error = %v, want ErrClosed", round, g, errs[g])
				}
				continue
			}
			if werr := handles[g].Wait(); werr != nil {
				t.Fatalf("round %d: caller %d Wait = %v, want nil: Close finishes every admitted job", round, g, werr)
			}
		}
		if _, err := s.Submit(context.Background(), JobSpec{Fn: func(c *Context) {}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Submit after Close = %v, want ErrClosed", round, err)
		}
		if err := s.Runtime().Quiescent(); err != nil {
			t.Fatalf("round %d: pool not quiescent after drain: %v", round, err)
		}
	}
}
