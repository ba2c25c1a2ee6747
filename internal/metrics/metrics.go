// Package metrics provides the instrumentation used to reproduce the
// paper's overhead measurements: owner-only tallies and padded counters for
// the four sources of reduce overhead (view creation, view insertion, view
// transferal and hypermerge), simple timing statistics, and text renderers
// for the tables and figures the benchmark harness prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Overhead identifies one of the reduce-overhead categories from Figure 8.
type Overhead int

// Overhead categories.
const (
	ViewCreation Overhead = iota
	ViewInsertion
	Hypermerge
	ViewTransferal
	numOverheads
)

// String returns the category name as used in the paper's figures.
func (o Overhead) String() string {
	switch o {
	case ViewCreation:
		return "view creation"
	case ViewInsertion:
		return "view insertion"
	case Hypermerge:
		return "hypermerge"
	case ViewTransferal:
		return "view transferal"
	default:
		return fmt.Sprintf("overhead(%d)", int(o))
	}
}

// Overheads returns every category in display order.
func Overheads() []Overhead {
	return []Overhead{ViewCreation, ViewInsertion, Hypermerge, ViewTransferal}
}

// Breakdown holds accumulated time and event counts per overhead category.
type Breakdown struct {
	Nanos  [numOverheads]int64
	Counts [numOverheads]int64
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(other Breakdown) {
	for i := range b.Nanos {
		b.Nanos[i] += other.Nanos[i]
		b.Counts[i] += other.Counts[i]
	}
}

// Tick counts one event of category o and, when start is a Recorder.Start
// stamp taken with timing on, the time since.  A worker ticks a Breakdown
// of its own — plain fields, owner-goroutine only — on the per-view paths
// and hands it to Recorder.Flush where its trace ends.
//
//cilkvet:hotpath
func (b *Breakdown) Tick(o Overhead, start int64) {
	b.Counts[o]++
	if start != 0 {
		b.addSince(o, start)
	}
}

// addSince is Tick's timed half, outlined so the untimed Tick inlines.
//
//go:noinline
func (b *Breakdown) addSince(o Overhead, start int64) { b.Nanos[o] += now() - start }

// clockBase anchors the monotonic stamps Recorder.Start hands out.
var clockBase = time.Now()

// now returns the monotonic nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

// TickN counts n untimed events of category o.
//
//cilkvet:hotpath
func (b *Breakdown) TickN(o Overhead, n int64) { b.Counts[o] += n }

// Total returns the summed duration across all categories.
func (b Breakdown) Total() time.Duration {
	var t int64
	for _, n := range b.Nanos {
		t += n
	}
	return time.Duration(t)
}

// Duration returns the accumulated time in one category.
func (b Breakdown) Duration(o Overhead) time.Duration { return time.Duration(b.Nanos[o]) }

// Count returns the number of events in one category.
func (b Breakdown) Count(o Overhead) int64 { return b.Counts[o] }

// String renders the breakdown in a compact single line.
func (b Breakdown) String() string {
	parts := make([]string, 0, numOverheads)
	for _, o := range Overheads() {
		parts = append(parts, fmt.Sprintf("%s=%v/%d", o, b.Duration(o), b.Count(o)))
	}
	return strings.Join(parts, " ")
}

// PaddedCounter is an atomic int64 counter padded out to a cache line, so
// that adjacent counters (scheduler statistics, the reducer engines'
// pipeline counters) do not false-share.  The zero value is ready
// to use.
//
//cilkvet:nocopy
type PaddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Add atomically adds delta and returns the new value.
func (c *PaddedCounter) Add(delta int64) int64 { return c.n.Add(delta) }

// Load atomically reads the counter.
func (c *PaddedCounter) Load() int64 { return c.n.Load() }

// Store atomically sets the counter.
func (c *PaddedCounter) Store(v int64) { c.n.Store(v) }

// Max raises the counter to v if v is greater than the current value.
func (c *PaddedCounter) Max(v int64) {
	for {
		cur := c.n.Load()
		if v <= cur || c.n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MergePipeline aggregates the hypermerge counters: how many deposits were
// merged, how many occupied SPA slots they carried and how each was settled
// (reduced, adopted, elided, dropped stale).  The bulk-page-movement claim —
// fewer pagepool round-trips than slots merged — is checked against these
// counters together with pagepool.Stats.RoundTrips.
type MergePipeline struct {
	Merges          PaddedCounter // deposits folded by Merge
	SlotsMerged     PaddedCounter // occupied slots processed (reduces + adopts)
	Reduces         PaddedCounter // slots reduced current ⊗ deposited
	Adopts          PaddedCounter // slots adopted (deposit only)
	BulkPageFetches PaddedCounter // bulk pagepool fetches by view transferal
	BulkPageReturns PaddedCounter // bulk pagepool returns after merging
	StaleViewDrops  PaddedCounter // in-flight views dropped after their reducer was unregistered
	// IdentityElisions counts views that were looked up but never handed
	// out for mutation (their slot's written bit stayed clear), so the
	// pipeline recycled them without a reduce call or a page round-trip:
	// reducing with the monoid identity is a no-op.
	IdentityElisions PaddedCounter
}

// MergePipelineStats is a point-in-time snapshot of MergePipeline.
type MergePipelineStats struct {
	Merges           int64
	SlotsMerged      int64
	Reduces          int64
	Adopts           int64
	BulkPageFetches  int64
	BulkPageReturns  int64
	StaleViewDrops   int64
	IdentityElisions int64
}

// Snapshot reads every counter.
func (m *MergePipeline) Snapshot() MergePipelineStats {
	return MergePipelineStats{
		Merges:           m.Merges.Load(),
		SlotsMerged:      m.SlotsMerged.Load(),
		Reduces:          m.Reduces.Load(),
		Adopts:           m.Adopts.Load(),
		BulkPageFetches:  m.BulkPageFetches.Load(),
		BulkPageReturns:  m.BulkPageReturns.Load(),
		StaleViewDrops:   m.StaleViewDrops.Load(),
		IdentityElisions: m.IdentityElisions.Load(),
	}
}

// Reset zeroes every counter.
func (m *MergePipeline) Reset() {
	m.Merges.Store(0)
	m.SlotsMerged.Store(0)
	m.Reduces.Store(0)
	m.Adopts.Store(0)
	m.BulkPageFetches.Store(0)
	m.BulkPageReturns.Store(0)
	m.StaleViewDrops.Store(0)
	m.IdentityElisions.Store(0)
}

// LookupFastPathStats is a point-in-time snapshot of an engine's lookup
// outcome counters.  The single-deref hit inside reducers.Handle is
// deliberately counter-free (a counter there would cost as much as the
// lookup it measures); these counters start one layer down, in the engines'
// LookupWord, where each worker ticks a plain owner-only field and flushes
// it at trace end.  Hits + Misses is the number of lookups that reached the
// engine.
type LookupFastPathStats struct {
	// Hits counts lookups answered by the precomputed (page, slot) index —
	// or, on the hypermap engine, the bucket-head probe — with no
	// slow-path work.
	Hits int64
	// Misses counts lookups that fell through to the outlined miss path
	// (written-bit stamping, first touches, recycled slots, retired
	// handles and, on the hypermap engine, below-head chain entries).
	Misses int64
	// ColdMisses counts the subset of Misses that found no view of their
	// own — view creation, stale-slot recovery, or a retired handle's
	// frozen leftmost read.
	ColdMisses int64
}

// LookupCounters is the shared, sampled side of the lookup outcome
// counters: workers count into a private LookupFastPathStats and Flush it
// here at trace end, so a lookup never performs an atomic write.
type LookupCounters struct {
	hits, misses, cold PaddedCounter
}

// Flush folds a worker's private counts into the shared counters and zeroes
// them.  Owner-goroutine only with respect to local.
func (c *LookupCounters) Flush(local *LookupFastPathStats) {
	if local.Hits != 0 {
		c.hits.Add(local.Hits)
	}
	if local.Misses != 0 {
		c.misses.Add(local.Misses)
		c.cold.Add(local.ColdMisses)
	}
	*local = LookupFastPathStats{}
}

// Snapshot reads every counter.
func (c *LookupCounters) Snapshot() LookupFastPathStats {
	return LookupFastPathStats{Hits: c.hits.Load(), Misses: c.misses.Load(), ColdMisses: c.cold.Load()}
}

// Reset zeroes every counter.
func (c *LookupCounters) Reset() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.cold.Store(0)
}

// ArenaStats is a point-in-time aggregate of the per-worker view arenas:
// how identity views were allocated (free-list reuse vs fresh bump-chunk
// carves), how many dead views came back, and how many views bypassed the
// arena because their monoid is not arena-eligible.  A snapshot lags the
// workers by at most one trace mid-run and is exact between jobs (see
// ArenaCounters).
type ArenaStats struct {
	Allocs      int64 // blocks handed out by the arenas
	FreeHits    int64 // allocations served from a free list (recycled views)
	ChunkAllocs int64 // fresh bump chunks allocated
	Frees       int64 // dead views returned to a free list
	FreeBlocks  int64 // blocks currently sitting on free lists
	HeapViews   int64 // identity views heap-allocated (monoid not arena-eligible)
}

// ArenaCounters is the shared, sampled side of the view-arena counters,
// the LookupCounters idiom: each worker counts into a private ArenaStats
// and Flushes it here at trace end and after every hypermerge, so an arena
// alloc or free never performs an atomic write.
type ArenaCounters struct {
	allocs, freeHits, chunkAllocs, frees, heapViews PaddedCounter
}

// Flush folds a worker's private counts into the shared counters and zeroes
// them.  Owner-goroutine only with respect to local, whose FreeBlocks is not
// read: the level is derived in Snapshot.
func (c *ArenaCounters) Flush(local *ArenaStats) {
	if *local == (ArenaStats{}) {
		return
	}
	c.allocs.Add(local.Allocs)
	c.freeHits.Add(local.FreeHits)
	c.chunkAllocs.Add(local.ChunkAllocs)
	c.frees.Add(local.Frees)
	c.heapViews.Add(local.HeapViews)
	*local = ArenaStats{}
}

// Snapshot reads every counter.  A block is on a free list from its free
// until a later allocation pops it, so FreeBlocks is Frees − FreeHits.
func (c *ArenaCounters) Snapshot() ArenaStats {
	s := ArenaStats{
		Allocs:      c.allocs.Load(),
		FreeHits:    c.freeHits.Load(),
		ChunkAllocs: c.chunkAllocs.Load(),
		Frees:       c.frees.Load(),
		HeapViews:   c.heapViews.Load(),
	}
	s.FreeBlocks = s.Frees - s.FreeHits
	return s
}

// DirectoryStats is a point-in-time snapshot of the reducer directory: the
// live and free address population and the registration counters.
type DirectoryStats struct {
	Live             int64 // reducers currently registered
	FreeSlots        int64 // recycled addresses on the free list
	GrownPages       int64 // SPA pages fresh addresses have reached
	Registers        int64 // successful registrations
	Recycles         int64 // registrations served from the free list
	FreshSlots       int64 // registrations that took a never-used address
	Unregisters      int64 // identity-checked unregistrations
	StaleUnregisters int64 // unregisters that lost the identity CAS
}

// Recorder is the shared, sampled side of the overhead instrumentation,
// the LookupCounters idiom: workers tick a private Breakdown and Flush it
// here where a trace ends, so the per-view paths never perform an atomic
// write, a Snapshot lags a running worker by at most one trace, and one
// taken once the job has returned is exact.  The zero value is ready to
// use, with timing off.
type Recorder struct {
	nanos, counts [numOverheads]PaddedCounter
	// timing controls whether durations are recorded; event counts are
	// always recorded.
	timing atomic.Bool
}

// SetTiming enables or disables duration recording.  Disabling it removes
// the clock reads from the instrumented fast paths while keeping counts.
func (r *Recorder) SetTiming(on bool) { r.timing.Store(on) }

// Timing reports whether duration recording is enabled.
func (r *Recorder) Timing() bool { return r.timing.Load() }

// Start returns a clock stamp if timing is enabled and zero otherwise; pair
// it with Breakdown.Tick.
//
//cilkvet:hotpath
func (r *Recorder) Start() int64 {
	if !r.timing.Load() {
		return 0
	}
	return now()
}

// Flush folds a worker's private tally into the recorder and zeroes it.
// Owner-goroutine only with respect to local.
func (r *Recorder) Flush(local *Breakdown) {
	for o := range local.Counts {
		if n := local.Counts[o]; n != 0 {
			r.counts[o].Add(n)
		}
		if n := local.Nanos[o]; n != 0 {
			r.nanos[o].Add(n)
		}
	}
	*local = Breakdown{}
}

// Snapshot reads every counter.
func (r *Recorder) Snapshot() Breakdown {
	var b Breakdown
	for o := range b.Counts {
		b.Nanos[o] = r.nanos[o].Load()
		b.Counts[o] = r.counts[o].Load()
	}
	return b
}

// Reset zeroes every counter.
func (r *Recorder) Reset() {
	for o := range r.counts {
		r.nanos[o].Store(0)
		r.counts[o].Store(0)
	}
}

// Sample summarises repeated timing measurements.
type Sample struct {
	values []float64
}

// AddValue appends one measurement.
func (s *Sample) AddValue(v float64) { s.values = append(s.values, v) }

// AddDuration appends one duration measured in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.AddValue(d.Seconds()) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation, or 0 when fewer than two
// measurements exist.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	acc := 0.0
	for _, v := range s.values {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n-1))
}

// RelStdDev returns the standard deviation as a fraction of the mean, the
// quantity the paper reports ("standard deviation of less than 5%").
func (s *Sample) RelStdDev() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// Min returns the smallest measurement, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest measurement, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Median returns the median measurement, or 0 for an empty sample.
func (s *Sample) Median() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Table is a minimal text-table builder for harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		sb.WriteString(strings.Repeat("-", total))
		sb.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
