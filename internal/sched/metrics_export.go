package sched

import "repro/internal/metrics"

// SampleMetrics implements metrics.Source: it exports the scheduler's
// per-worker counters (forks, steals, deque depth) as
// exporter samples.  Stats already reads nothing but per-worker padded
// atomics, so sampling is lock-free and safe at any point of a run; a
// Prometheus rate() over cilkm_sched_steals_total is the steals/s signal
// the observability docs describe.
func (rt *Runtime) SampleMetrics(emit func(metrics.MetricSample)) {
	s := rt.Stats()
	counter := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindCounter, Value: float64(v)})
	}
	counter("cilkm_sched_forks_total", "Fork calls.", s.Forks)
	counter("cilkm_sched_steals_total", "Successful steals.", s.Steals)
	counter("cilkm_sched_failed_steals_total", "Steal sweeps that found nothing.", s.FailedSteals)
	counter("cilkm_sched_stalled_joins_total", "Forks whose continuation was stolen.", s.StalledJoins)
	counter("cilkm_sched_helped_tasks_total", "Tasks executed while waiting at a join.", s.HelpedTasks)
	counter("cilkm_sched_tasks_executed_total", "Stolen or injected tasks executed.", s.TasksExecuted)
	counter("cilkm_sched_root_tasks_total", "Run invocations.", s.RootTasks)
	counter("cilkm_sched_parallel_for_splits_total", "Splits performed by ParallelFor.", s.ParallelForSpl)
	counter("cilkm_sched_worker_parks_total", "Worker park transitions (a registration that backs out at the recheck is not counted).", rt.parks.Load())
	counter("cilkm_sched_worker_unparks_total", "Worker unpark transitions.", rt.unparks.Load())
	var parkCost, warmPickups, warmExpiries, wakesGated, gateReleased int64
	for _, w := range rt.workers {
		parkCost = max(parkCost, w.idle.parkCost.Load())
		warmPickups += w.idle.warmPickups.Load()
		warmExpiries += w.idle.warmExpiries.Load()
		wakesGated += w.nWakesGated.Load()
		gateReleased += w.nGateReleased.Load()
	}
	counter("cilkm_sched_warm_pickups_total", "Service jobs picked up by a worker that stayed warm instead of parking.", warmPickups)
	counter("cilkm_sched_warm_expiries_total", "Warm phases that ran out without a pickup, after which the worker parked.", warmExpiries)
	counter("cilkm_sched_wakeups_sent_total", "Wake tokens sent to parked workers.", rt.wakesSent.Load())
	counter("cilkm_sched_wakeups_gated_total", "Wake-ups not sent because the pushing root was predicted to end before a woken thief could arrive.", wakesGated)
	counter("cilkm_sched_gate_releases_total", "Gated roots that outlived the gate and signalled for their deque.", gateReleased)
	gauge := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindGauge, Value: float64(v)})
	}
	gauge("cilkm_sched_park_to_run_latency_ns", "Measured cost of waking a parked worker (queued stamp to pickup right after an unpark), the largest per-worker estimate; a worker stays warm for at most this long.", parkCost)
	gauge("cilkm_sched_thief_wakeup_latency_ns", "Measured cost of waking a parked thief (wake token sent to thief running), smoothed; a root predicted shorter than twice this wakes none.", rt.wakeCost.Load())
	gauge("cilkm_sched_max_deque_depth", "High-water mark of any worker deque.", s.MaxDequeDepth)
	gauge("cilkm_sched_workers", "Configured worker count.", int64(len(rt.workers)))
}

// SampleMetrics implements metrics.Source for the resident service: the
// admission, load and degradation signals the observability docs describe.
// All counters are plain atomics, so sampling never touches the admission
// lock and is safe at any point of a run.
func (s *Service) SampleMetrics(emit func(metrics.MetricSample)) {
	st := s.Stats()
	counter := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindCounter, Value: float64(v)})
	}
	gauge := func(name, help string, v int64) {
		emit(metrics.MetricSample{Name: name, Help: help, Kind: metrics.KindGauge, Value: float64(v)})
	}
	counter("cilkm_service_jobs_admitted_total", "Jobs accepted into the admission queue.", st.Admitted)
	counter("cilkm_service_jobs_rejected_total", "Submissions failed with ErrOverloaded under the reject policy.", st.Rejected)
	counter("cilkm_service_jobs_settled_total", "Jobs fully settled (success, failure, or cancellation).", st.Settled)
	counter("cilkm_service_deadline_misses_total", "Jobs cancelled by deadline expiry.", st.DeadlineMisses)
	counter("cilkm_service_watchdog_cancels_total", "Jobs cancelled by the stall watchdog.", st.WatchdogCancels)
	gauge("cilkm_service_queue_depth", "Jobs currently waiting in the admission queue.", st.QueueDepth)
	gauge("cilkm_service_jobs_running", "Jobs currently executing on the worker pool.", st.Running)
	gauge("cilkm_service_queue_capacity", "Configured admission queue bound.", st.QueueCapacity)
}
