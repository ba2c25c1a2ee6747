// Package sched implements the work-stealing fork-join runtime on which the
// reducer mechanisms run.  It plays the role of the Cilk-M/Cilk Plus
// runtime in the paper: P workers, per-worker deques, randomized work
// stealing, and a join protocol under which a worker's execution between
// steals mirrors a serial execution exactly, so that reducer views need to
// be created, transferred and merged only when steals actually occur.
//
// Go cannot steal the un-reified continuation of a running function, so the
// primitive is Fork(left, right): left runs inline and right — the
// continuation — is pushed to the deque where a thief may promote it.  The
// serial fast path (no steal) performs no reducer-related work at all,
// matching the property the paper's overhead accounting relies on.
//
// A root enters a runtime one of two ways: the goroutine inside Run is
// itself worker 0 and runs it inline, or, on a Service's runtime, an idle
// worker pops the next job from the FIFO admission queue.  An idle worker
// parks, and is woken by the push or Submit that gives it something to do;
// what a wake-up is measured to cost sets how long it first keeps looking
// and which roots' pushes wake it at all (idle.go).  Either way the worker
// that ran a root settles it: it folds the root's views into the reducers'
// leftmost ones through the reducer hooks (ReducerRuntime.MergeRootDeposit),
// or discards them if the job was cancelled meanwhile, before Run returns
// or the job's handle completes; and Runtime.Quiescent ends with the
// mechanism's own leak check.
//
// The runtime keeps per-worker padded counters (forks, steals, merge
// tasks, deque depth) that Stats aggregates lock-free; Runtime implements
// metrics.Source, so the same counters can be scraped live through the
// metrics exporter.  Job-boundary failure containment (panic.go) turns
// panics in parallel code into errors at the Run boundary without leaking
// views or deque entries.
package sched
