package main

import "sync"

// The reference loop is what the benchmark measures the host with.  The
// sizing box is a guest on a shared host whose cores change speed under the
// program: identical runs of a plain loop read 1.0 to 2.3 times their best
// from one second to the next and, for minutes at a time, from one run to
// the next, while the guest sees no steal time.  No estimator over the
// repeats of one run removes a slowdown that outlasts the run, so the runs
// are told apart from the host by a control: a fixed piece of plain Go that
// touches nothing of the runtime, run on W goroutines right before every
// timed repeat and every set-up.  A repeat's throughput is multiplied, and
// its times divided, by how much slower than its reference time the loop
// ran just before it (run.go, endToEnd).
//
// The loop has the two ingredients the runtime's hot paths are made of: a
// chain of dependent ALU steps, which a busy neighbour on the core barely
// slows (it alone reads the same within 5 % whatever the host does), and
// independent read-modify-writes in a 4 KiB array, which it slows as much
// as the workloads.  Plain pointer chases through 256 KiB and 64 MiB and a
// model of the SPA probe were tried beside them and follow the workloads
// less well; benchmark/README.md (Noise) has the measurements.
const (
	refChainSteps = 1 << 20 // dependent xorshift steps per burst and thread
	refArraySteps = 8 << 20 // read-modify-writes per burst and thread
	refArrayLen   = 512     // int64s: 4 KiB, well inside L1

	// referenceNS is what one thread's burst takes on the sizing box in its
	// commonest state (the median of 9 000 bursts at W = 2 over two hours;
	// the quietest tenth took 7.5 ms).  It only fixes the scale: results read
	// as "on a box where the burst takes this long".
	referenceNS = 10e6
)

type refThread struct {
	cells [refArrayLen]int64
	sink  uint64
	_     [56]byte
}

var refThreads [maxWorkers]refThread

// referenceBurst runs the reference loop on threads goroutines at once and
// returns what each took, in ns.
func referenceBurst(threads int) []float64 {
	took := make([]float64, threads)
	var wg sync.WaitGroup
	for id := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := &refThreads[id]
			t0 := now()
			x := uint64(id)*0x9E3779B97F4A7C15 | 1
			for i := 0; i < refChainSteps; i++ {
				x = xorshift(x)
			}
			for i := 0; i < refArraySteps; i++ {
				th.cells[(i*9)&(refArrayLen-1)] += int64(i)
			}
			took[id] = float64(now() - t0)
			th.sink += x
		}()
	}
	wg.Wait()
	return took
}

// hostSlowdown is how many times slower than its reference time the
// reference loop runs right now: 1 on the quiet sizing box, more under a
// busy host, less on a faster machine.  The threads' speeds are added up,
// as a work-stealing runtime adds up its workers': one core at half speed
// beside one at full speed is a slowdown of 4/3, not 2.
func hostSlowdown(threads int) float64 {
	var speed float64
	for _, ns := range referenceBurst(threads) {
		speed += referenceNS / ns
	}
	return float64(threads) / speed
}
