package sched

import (
	"time"

	"repro/internal/metrics"
)

// This file is the worker's idle policy: when a worker that has found no
// work should stop looking and park, and — the same question asked from the
// other side — when a parked worker is worth waking (the wake gate, below).
//
// Parking is free while the worker sleeps and costs one wake-up when the
// next job arrives; sweeping costs CPU for as long as it lasts and nothing
// when the job arrives.  This is the ski-rental problem, and the policy is
// its classic answer: keep sweeping for a fixed multiple of what one
// wake-up costs, then park, so that neither the CPU spent nor the latency
// added is ever more than a constant factor from the best choice in
// hindsight.  What a wake-up costs is measured, not configured.  Every
// service job is stamped when it is queued, and a worker whose first sweep
// after an unpark picks one up folds pickup − queued into its own estimate.
// A client that blocks after Submit hands its P to the worker it readied,
// the estimate stays near 1 µs and the worker parks exactly as it would
// without this file.  A submitter that keeps running leaves the readied
// worker in its P's runnext slot until another M has been futex-woken and
// steals it, the estimate reads what that took, and the worker stays warm
// across gaps of that order.
//
// A thief stays warm by another rule, the one that tells a steal that pays
// from one that does not: the length of the root it steals from.  Keeping
// every thief (and waitJoin) warm was measured and lost: a stolen half of a
// 25 µs Run costs more in view creation and hypermerge than it saves
// (docs/ARCHITECTURE.md, "no dispatcher goroutine").  A root predicted at
// least warmCapNS long, by the predictor the wake gate uses, is another
// matter: it is likely to push again before a wake-up would land, and its
// halves are worth a steal.  While one runs (Runtime.longRoots), a worker
// that has run one of its tasks, or has just been woken to, sweeps on for
// up to warmCapNS, in loop and in waitJoin alike (thiefWarm).  No
// trace_cycle Run or service job is predicted that long.  The wake gate at
// the end of this file is the same lesson from the waking side.

const (
	// parkSweeps is how many empty sweeps a worker makes before it
	// considers parking, in loop and in waitJoin alike: four sweeps of a
	// few deques are ≈ 0.1 µs, which rides out the instant between a
	// victim's pop and its next push.  More is worse: at 32, which the
	// knob this replaces used while a service was busy, thieves stole
	// halves of 10 µs jobs and service_closed ran 40 k jobs/s, not 50 k.
	parkSweeps = 4

	// warmSkipNS is the estimate below which a worker skips the warm phase
	// and parks at once.  A handed-over P runs the woken worker about 1 µs
	// after the stamp (TestIdleClosedLoopNeverWarms, 50 runs on 2 vCPUs:
	// estimate 0.3–2.5 µs), and one yield-paced sweep is ≈ 0.5 µs, so below
	// a few µs the phase has nothing to save.
	warmSkipNS = 4_000

	// warmFactor is how many estimates long the warm phase is.  A wake-up
	// delays not only the job that caused it but every arrival behind it:
	// on Poisson arrivals 67 µs apart with a 95 µs estimate (service_open
	// on the 2-vCPU sizing box), one estimate let 30 % of the idle periods
	// outlast the phase and 45 % of all jobs still queued behind a
	// wake-up (pooled latency p50 34–47 µs, p75 108–124 µs); two estimates
	// leave 9 % and 17 % (p50 18–19 µs, p75 60–108 µs), and the rarer
	// wake-ups also give the OS fewer chances to put the woken thread on
	// the submitter's CPU.  Holding the phase at warmCapNS whatever the
	// estimate read the same as two.
	warmFactor = 2

	// resampleEvery is how many consecutive warm pickups a worker makes
	// before it parks once to measure a wake-up again: often enough that an
	// estimate left behind by a submitter that has since begun to block is
	// gone within a few thousand jobs, rarely enough that under steady
	// open-loop traffic one job in 256 pays for it.
	resampleEvery = 256

	// warmCapNS bounds a sample and the warm phase, and with it how long an
	// idle worker holds a P after its last job.  The wake-up of a worker
	// readied by a submitter that does not block measured 70–110 µs on a
	// 2-vCPU VM (service_open's sched.queue_wait_us_p50 before this
	// policy: 84 µs), so 200 µs is two of those; it leaves room for a
	// slower host and still hands every P back well inside 1 ms
	// (TestIdleParksWhenTrafficStops).
	warmCapNS = 200_000

	// gateFactor is warmFactor's twin on the waking side: a root predicted
	// shorter than this many thief wake-ups wakes no parked thief (shutGate).
	// A 12–17 µs root's thief arrives 50–130 µs after the signal, to nothing.
	// Never waking one reads +45…50 % on trace_cycle; a gate of 8 wake-ups
	// keeps +45 % but takes pbfs_grid's ≈ 200 µs layers' thief (−11…−14 %,
	// no steals); 2 keeps +33…39 % and a 200 µs root straddles or clears it.
	gateFactor = 2

	// gateProbeEvery: one gated root in this many signals as if ungated, so
	// thief wake-ups keep being sampled and useful thieves can show it.
	gateProbeEvery = 256
)

var clockBase = time.Now()

// nanotime is the monotonic clock of the queued stamps and the warm
// deadline: one runtime clock read, no wall-clock part.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// idlePolicy is one worker's share of the policy.  Every field is written
// by the owning worker only; the three counters are published for
// SampleMetrics by single-writer stores, so the sweep performs no locked
// read-modify-write.
type idlePolicy struct {
	// unparked is set by an unpark and consumed by the sweep that follows
	// it: only a pickup made by that sweep measures a wake-up.
	unparked bool
	// warm is set while the worker's last productive pickup was a service
	// job and the warm phase it earned has not expired.  A steal
	// clears it: a thief's phase is thiefWarm's.
	warm bool
	// warmUntil is the deadline of the warm phase in progress, 0 when the
	// phase has not begun.
	warmUntil int64
	// lastSample is the previous wake-up sample.  The estimate moves a
	// sixteenth of the way to the smaller of two consecutive samples: 2–3 %
	// of a blocking caller's hand-overs take 10–50 µs instead of 1 (the
	// readied worker is stolen by a thread that was itself just woken), and
	// neither one of those nor two in a row may open warm phases, while
	// twenty samples of a slow wake-up are enough to learn it.
	lastSample int64
	// thiefUntil is the deadline of the thief's warm phase (thiefWarm),
	// 0 until the first idle sweep after ranTask begins one.
	thiefUntil int64
	// unsampled counts the warm pickups since the last sample.  A worker
	// that is always caught warm never parks, so nothing measures what a
	// wake-up costs its callers now; after resampleEvery of them it parks
	// once regardless, to find out.
	unsampled int

	parkCost     metrics.PaddedCounter // estimate of one wake-up, ns
	warmPickups  metrics.PaddedCounter // jobs picked up inside a warm phase
	warmExpiries metrics.PaddedCounter // warm phases that ran out and parked
}

// tookRoot records that the worker picked up a service job that was queued
// at queuedAt.
func (p *idlePolicy) tookRoot(queuedAt int64) {
	switch {
	case p.unparked:
		sample := min(nanotime()-queuedAt, warmCapNS)
		est := p.parkCost.Load()
		p.parkCost.Store(est + (min(sample, p.lastSample)-est)/16)
		p.lastSample = sample
		p.unparked = false
		p.unsampled = 0
	case p.warmUntil != 0:
		p.warmPickups.Store(p.warmPickups.Load() + 1)
		p.unsampled++
	}
	p.warm, p.warmUntil = true, 0
}

// tookSteal records that the worker stole a task, which ends any claim to
// a service job's warm phase and opens the thief's (ranTask).
func (p *idlePolicy) tookSteal() {
	p.unparked, p.warm, p.warmUntil = false, false, 0
	p.ranTask()
}

// ranTask records that the worker ran a task of some root's — a stolen
// one, one it helped with at a join, the branch before a join it stalls at —
// or was woken to steal one.  A woken thief that finds the task already
// popped back would otherwise park at once and be woken, late again, by the
// root's next push.
func (p *idlePolicy) ranTask() { p.thiefUntil = 0 }

// thiefWarm is stayWarm for a thief: while a root predicted long runs
// (rt.longRoots), a worker that has run one of its tasks keeps sweeping for
// warmCapNS after the last, since that root is likely to push again before
// a wake-up could deliver it.  No phase outlives the long roots, and an
// expired one stays expired until the next ranTask.
func (p *idlePolicy) thiefWarm(rt *Runtime) bool {
	if rt.longRoots.Load() == 0 {
		return false
	}
	now := nanotime()
	if p.thiefUntil == 0 {
		p.thiefUntil = now + warmCapNS
	}
	return now < p.thiefUntil
}

// stayWarm reports whether the worker, having found nothing, should yield
// and sweep again instead of parking.  The first call after a job opens
// the phase, if the estimate is worth one; later calls hold it open
// until its deadline.
func (p *idlePolicy) stayWarm() bool {
	if !p.warm {
		return false
	}
	if p.warmUntil == 0 {
		est := p.parkCost.Load()
		if est < warmSkipNS || p.unsampled >= resampleEvery {
			p.warm, p.unsampled = false, 0
			return false
		}
		p.warmUntil = nanotime() + min(warmFactor*est, warmCapNS)
		return true
	}
	if nanotime() < p.warmUntil {
		return true
	}
	p.warm, p.warmUntil = false, 0
	p.warmExpiries.Store(p.warmExpiries.Load() + 1)
	return false
}

// The wake gate.  A push onto an empty deque wakes a parked thief
// (pushTask), who is worth the wake-up only if the job is still running
// when it arrives.  So every root — a Run caller's on worker 0, a service
// job on the pool worker that popped it (runRoot) — predicts its length
// from the previous root's on the same worker, and one predicted shorter
// than gateFactor thief wake-ups starts behind the gate: its pushes signal
// nobody.  Fork checks a gated root's age after its left branches, and once
// the root has outlived the gate it signals for what its deque holds and
// pushes as if never gated.  Awake thieves steal from a gated root as from
// any other, and what a stolen task pushes always signals (runTask).
//
// What a thief's wake-up costs is Runtime.wakeCost: the first wake token a
// root's pushes send, and a gate release's, carry the time, and the worker
// one wakes from loop's park folds woken − sent in as tookRoot folds its
// samples.  It is not parkCost, which prices waking a worker for the waker's
// own job (a blocking Submit hands its P over, ≈ 1 µs; a thief's waker runs
// on, tens of µs): one estimate for both kept service_closed's workers warm
// through a third of its jobs (p50 +15…28 %; docs/ARCHITECTURE.md §1).

// woke folds the wake-up of a worker that parked at parkedAt, by the token
// sent at sent, into the estimate.  An untimed token, or one older than the
// park, measures nothing; workers woken together may lose an update.
func (w *Worker) woke(sent, parkedAt int64) {
	if sent < parkedAt {
		return
	}
	sample := min(nanotime()-sent, warmCapNS)
	est := w.rt.wakeCost.Load()
	w.rt.wakeCost.Store(est + (min(sample, w.lastWake)-est)/16)
	w.lastWake = sample
}

// wakeStamp is the token for an ungated push's signal: the time, once a root.
func (w *Worker) wakeStamp() int64 {
	if w.stamped {
		return 0
	}
	w.stamped = true
	return nanotime()
}

// wakeGated reports whether the trace in progress is behind the gate.
func (w *Worker) wakeGated() bool { return w.gateUntil != 0 }

// shutGate decides whether the root w is about to run starts gated; it
// returns the time.
func (w *Worker) shutGate() int64 {
	now := nanotime()
	w.stamped = false
	if hold := gateFactor * w.rt.wakeCost.Load(); w.rootRan < hold {
		if w.gatedRoots++; w.gatedRoots%gateProbeEvery != 0 {
			w.gateUntil = now + hold
		}
	}
	return now
}

// checkGate opens the gate once the root has outlived it.  A clock read is
// 40 ns on the sizing box and a 15 µs root forks 15 times, so only every
// fourth call reads it: the root learns at most four leaves late.
func (w *Worker) checkGate() {
	if w.gateChecks++; w.gateChecks%4 != 0 || nanotime() < w.gateUntil {
		return
	}
	w.gateUntil = 0
	w.releasedLocal++
	if w.dq.size() > 0 {
		w.rt.signalWork(nanotime())
	}
}
