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

// Tick counts one event of category o and, when start is a Start stamp
// taken with timing on, the time since.  A worker ticks the Breakdown of
// its own Tally on the per-view paths.
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

// clockBase anchors the monotonic stamps Start hands out.
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
// Totals) do not false-share.  The zero value is ready
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

// MergePipelineStats counts the hypermerge pipeline: how many deposits were
// merged, how many occupied slots they carried and how each was settled
// (reduced, adopted, dropped stale).  The bulk-page-movement claim —
// fewer pagepool round-trips than slots merged — is checked against these
// counts together with pagepool.Stats.RoundTrips.
type MergePipelineStats struct {
	Merges          int64 // deposits folded by Merge
	SlotsMerged     int64 // occupied slots processed (reduces + adopts)
	Reduces         int64 // slots reduced current ⊗ deposited
	Adopts          int64 // slots adopted (deposit only)
	BulkPageFetches int64 // bulk pagepool fetches by view transferal
	BulkPageReturns int64 // bulk pagepool returns after merging
	StaleViewDrops  int64 // in-flight views dropped after their reducer was unregistered
	// IdentityElisions is always 0: no engine elides a view.  It is kept
	// only until benchmark/workload.go stops reading it.
	IdentityElisions int64
}

// LookupFastPathStats counts an engine's lookup outcomes.  The single-deref
// hit inside reducers.Handle is deliberately counter-free (a counter there
// would cost as much as the lookup it measures); these counts start one
// layer down, in the engines' LookupWord.  Hits + Misses is the number of
// lookups that reached the engine.
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

// ArenaStats counts the per-worker view arenas: how identity views were
// allocated (free-list reuse vs fresh bump-chunk carves), how many dead
// views came back, and how many views bypassed the arena because their
// monoid is not arena-eligible.
type ArenaStats struct {
	Allocs      int64 // blocks handed out by the arenas
	FreeHits    int64 // allocations served from a free list (recycled views)
	ChunkAllocs int64 // fresh bump chunks allocated
	Frees       int64 // dead views returned to a free list
	FreeBlocks  int64 // blocks currently sitting on free lists
	HeapViews   int64 // identity views heap-allocated (monoid not arena-eligible)
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

// Tally is everything a reducer engine counts, kept by one worker: plain
// fields only its own goroutine writes, so counting a lookup, an arena
// alloc or free, a merged slot or an overhead event never performs an
// atomic write.  The worker hands it to Totals.Flush where its trace ends
// and at the end of every Merge and Discard it runs; a merge that runs off
// every worker counts into a Tally of its own and flushes it once.
type Tally struct {
	Lookups  LookupFastPathStats
	Merge    MergePipelineStats
	Overhead Breakdown
	// Arena.FreeBlocks is a level, not a count: Totals.Snapshot derives it.
	Arena ArenaStats
}

// tallyCounts is the number of counts in a Tally, and tallyResettable the
// number Totals.Reset zeroes: all but the arena's five, which come last.
const (
	tallyCounts     = 3 + 8 + 2*numOverheads + 5
	tallyResettable = tallyCounts - 5
)

// counts lists t's counts in the order Totals stores them.
func (t *Tally) counts() [tallyCounts]*int64 {
	l, m, o, a := &t.Lookups, &t.Merge, &t.Overhead, &t.Arena
	return [tallyCounts]*int64{
		&l.Hits, &l.Misses, &l.ColdMisses,
		&m.Merges, &m.SlotsMerged, &m.Reduces, &m.Adopts,
		&m.BulkPageFetches, &m.BulkPageReturns, &m.StaleViewDrops, &m.IdentityElisions,
		&o.Nanos[0], &o.Nanos[1], &o.Nanos[2], &o.Nanos[3],
		&o.Counts[0], &o.Counts[1], &o.Counts[2], &o.Counts[3],
		&a.Allocs, &a.FreeHits, &a.ChunkAllocs, &a.Frees, &a.HeapViews,
	}
}

// Totals is the shared, sampled side of the tallies: workers Flush into it
// and Snapshot reads it at any time.  A snapshot lags a running worker by at
// most one trace and is exact once the job has returned.  The zero value is
// ready to use.
type Totals struct {
	n [tallyCounts]PaddedCounter
}

// Flush adds t into the totals and zeroes it.  Owner-goroutine only with
// respect to t.
func (s *Totals) Flush(t *Tally) {
	for i, p := range t.counts() {
		if *p != 0 {
			s.n[i].Add(*p)
		}
	}
	*t = Tally{}
}

// Snapshot reads every count.  A block is on an arena free list from its
// free until a later allocation pops it, so Arena.FreeBlocks is
// Frees − FreeHits.
func (s *Totals) Snapshot() Tally {
	var t Tally
	for i, p := range t.counts() {
		*p = s.n[i].Load()
	}
	t.Arena.FreeBlocks = t.Arena.Frees - t.Arena.FreeHits
	return t
}

// Reset zeroes every count but the arena's.  Those are levels as much as
// counts — FreeBlocks derives from them, and an engine balances them against
// the blocks it released when it checks quiescence — so a reset would
// falsify both.
func (s *Totals) Reset() {
	for i := range s.n[:tallyResettable] {
		s.n[i].Store(0)
	}
}

// Start returns a clock stamp when timing is on and zero otherwise; pair it
// with Breakdown.Tick.  An engine fixes timing at construction.
//
//cilkvet:hotpath
func Start(timing bool) int64 {
	if !timing {
		return 0
	}
	return now()
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
