package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestOverheadStrings(t *testing.T) {
	names := map[Overhead]string{
		ViewCreation:   "view creation",
		ViewInsertion:  "view insertion",
		Hypermerge:     "hypermerge",
		ViewTransferal: "view transferal",
	}
	for o, want := range names {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if got := Overhead(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown overhead string %q", got)
	}
	if len(Overheads()) != 4 {
		t.Fatalf("Overheads() returned %d categories, want 4", len(Overheads()))
	}
}

// tally builds a worker's private Tally from (category, nanos) overhead
// events.
func tally(events ...[2]int64) *Tally {
	var t Tally
	for _, ev := range events {
		t.Overhead.Counts[ev[0]]++
		t.Overhead.Nanos[ev[0]] += ev[1]
	}
	return &t
}

func TestTallyRecordAndSnapshot(t *testing.T) {
	var s Totals
	s.Flush(tally([2]int64{int64(ViewCreation), 10}))
	s.Flush(tally([2]int64{int64(ViewCreation), 20}))
	local := tally([2]int64{int64(Hypermerge), 30})
	local.Overhead.TickN(ViewInsertion, 5)
	s.Flush(local)
	if *local != (Tally{}) {
		t.Fatalf("Flush left the local tally at %+v", *local)
	}
	b := s.Snapshot().Overhead
	if b.Count(ViewCreation) != 2 || b.Duration(ViewCreation) != 30*time.Nanosecond {
		t.Fatalf("ViewCreation = %v/%d", b.Duration(ViewCreation), b.Count(ViewCreation))
	}
	if b.Count(ViewInsertion) != 5 || b.Duration(ViewInsertion) != 0 {
		t.Fatalf("ViewInsertion = %v/%d", b.Duration(ViewInsertion), b.Count(ViewInsertion))
	}
	if b.Total() != 60*time.Nanosecond {
		t.Fatalf("Total = %v, want 60ns", b.Total())
	}
	if !strings.Contains(b.String(), "hypermerge") {
		t.Fatalf("String() = %q", b.String())
	}
	s.Reset()
	if s.Snapshot() != (Tally{}) {
		t.Fatal("Reset did not clear counters")
	}
}

func TestTallyTiming(t *testing.T) {
	var s Totals
	var local Tally
	start := Start(false)
	if start != 0 {
		t.Fatal("Start should return zero when timing is disabled")
	}
	local.Overhead.Tick(ViewTransferal, start)
	local.Overhead.Tick(ViewTransferal, Start(false))
	s.Flush(&local)
	b := s.Snapshot().Overhead
	if b.Count(ViewTransferal) != 2 {
		t.Fatalf("counts = %d, want 2", b.Count(ViewTransferal))
	}
	if b.Duration(ViewTransferal) != 0 {
		t.Fatalf("durations should not accumulate when timing is off, got %v", b.Duration(ViewTransferal))
	}
	start = Start(true)
	time.Sleep(time.Millisecond)
	local.Overhead.Tick(ViewTransferal, start)
	s.Flush(&local)
	if s.Snapshot().Overhead.Duration(ViewTransferal) < time.Millisecond {
		t.Fatal("expected the slept millisecond with timing enabled")
	}
}

func TestTallyConcurrentFlush(t *testing.T) {
	var s Totals
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Tally
			for i := 0; i < 1000; i++ {
				local.Overhead.Counts[Hypermerge]++
				local.Overhead.Nanos[Hypermerge]++
				local.Merge.Reduces++
				if i%10 == 9 {
					s.Flush(&local)
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if b := snap.Overhead; b.Count(Hypermerge) != 4000 {
		t.Fatalf("count = %d, want 4000", b.Count(Hypermerge))
	}
	if b := snap.Overhead; b.Duration(Hypermerge) != 4000*time.Nanosecond {
		t.Fatalf("duration = %v, want 4µs", b.Duration(Hypermerge))
	}
	if snap.Merge.Reduces != 4000 {
		t.Fatalf("reduces = %d, want 4000", snap.Merge.Reduces)
	}
}

// TestTallyFlushCoversEveryField gives every count in a Tally its own value,
// flushes it, and checks that the snapshot returns each one and that the
// tally is zeroed: a field added to Tally without flush support fails here.
// FreeBlocks is the one derived field; Reset spares the arena's counts.
func TestTallyFlushCoversEveryField(t *testing.T) {
	var local Tally
	next := int64(1)
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i))
			}
		case reflect.Int64:
			v.SetInt(next)
			next++
		default:
			t.Fatalf("Tally holds a %v, which Totals cannot count", v.Type())
		}
	}
	set(reflect.ValueOf(&local).Elem())
	local.Arena.FreeBlocks = 0
	want := local
	want.Arena.FreeBlocks = want.Arena.Frees - want.Arena.FreeHits

	var s Totals
	s.Flush(&local)
	if local != (Tally{}) {
		t.Fatalf("Flush left the tally at %+v", local)
	}
	if got := s.Snapshot(); got != want {
		t.Fatalf("Snapshot after one Flush = %+v, want %+v", got, want)
	}
	s.Reset()
	if got := s.Snapshot(); got != (Tally{Arena: want.Arena}) {
		t.Fatalf("Snapshot after Reset = %+v, want only the arena counts %+v", got, want.Arena)
	}
}

func TestBreakdownAdd(t *testing.T) {
	var a, b Breakdown
	a.Nanos[ViewCreation] = 10
	a.Counts[ViewCreation] = 1
	b.Nanos[ViewCreation] = 5
	b.Counts[ViewCreation] = 2
	b.Nanos[Hypermerge] = 7
	a.Add(b)
	if a.Nanos[ViewCreation] != 15 || a.Counts[ViewCreation] != 3 || a.Nanos[Hypermerge] != 7 {
		t.Fatalf("Add produced %+v", a)
	}
}

func TestSampleStatistics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.RelStdDev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.AddValue(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if got := s.StdDev(); got < 2.13 || got > 2.14 {
		t.Fatalf("StdDev = %v, want ~2.138", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 4.5 {
		t.Fatalf("Median = %v, want 4.5", s.Median())
	}
	if rel := s.RelStdDev(); rel <= 0 || rel >= 1 {
		t.Fatalf("RelStdDev = %v", rel)
	}
	var odd Sample
	odd.AddDuration(time.Second)
	odd.AddDuration(3 * time.Second)
	odd.AddDuration(2 * time.Second)
	if odd.Median() != 2 {
		t.Fatalf("Median of odd sample = %v, want 2", odd.Median())
	}
	var single Sample
	single.AddValue(3)
	if single.StdDev() != 0 {
		t.Fatal("StdDev of single sample should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "name", "time", "ratio")
	tb.AddRow("add-4", 1500*time.Microsecond, 3.14159)
	tb.AddRow("add-1024", 2*time.Second, 0.5)
	out := tb.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "add-1024") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Fatalf("float formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	empty := NewTable("")
	empty.AddRow("a", "b")
	if !strings.Contains(empty.String(), "a") {
		t.Fatal("headerless table should still render rows")
	}
}

func TestPaddedCounter(t *testing.T) {
	var c PaddedCounter
	if c.Load() != 0 {
		t.Fatal("zero value should read 0")
	}
	if got := c.Add(5); got != 5 {
		t.Fatalf("Add returned %d, want 5", got)
	}
	c.Max(3)
	if c.Load() != 5 {
		t.Fatalf("Max(3) lowered the counter to %d", c.Load())
	}
	c.Max(9)
	if c.Load() != 9 {
		t.Fatalf("Max(9) = %d, want 9", c.Load())
	}
	c.Store(-2)
	if c.Load() != -2 {
		t.Fatalf("Store/Load = %d, want -2", c.Load())
	}
	if unsafe.Sizeof(c) != 64 {
		t.Fatalf("PaddedCounter is %d bytes, want one 64-byte cache line", unsafe.Sizeof(c))
	}
}

func TestPaddedCounterConcurrentMax(t *testing.T) {
	var c PaddedCounter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Max(int64(g*1000 + i))
			}
		}()
	}
	wg.Wait()
	if c.Load() != 7999 {
		t.Fatalf("concurrent Max converged to %d, want 7999", c.Load())
	}
}
