package bag

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func collect[T cmp.Ordered](b *Bag[T]) []T {
	var out []T
	for _, block := range b.Blocks(nil) {
		out = append(out, block...)
	}
	slices.Sort(out)
	return out
}

// fill returns a bag holding lo, lo+1, …, lo+n−1.
func fill(lo, n int) *Bag[int] {
	b := New[int]()
	for i := lo; i < lo+n; i++ {
		b.Insert(i)
	}
	return b
}

// isIota reports whether got is exactly 0, 1, …, n−1.
func isIota(got []int, n int) bool {
	for i, v := range got {
		if v != i {
			return false
		}
	}
	return len(got) == n
}

// countBlocks returns the number of nodes in the tree rooted at n.
func countBlocks[T any](n *node[T]) int {
	if n == nil {
		return 0
	}
	return 1 + countBlocks(n.left) + countBlocks(n.right)
}

// checkShape verifies the representation invariants: a pennant at rank k
// exactly where bit k of the block count is set, 2^k blocks in it, nothing
// hanging off a root's right, a hopper exactly when it has elements, and
// Blocks listing the full blocks and then the hopper's fill.
func checkShape[T any](t *testing.T, b *Bag[T]) {
	t.Helper()
	for k, p := range b.pennants {
		if want := b.blocks>>k&1 == 1; (p != nil) != want {
			t.Fatalf("rank %d: pennant present = %v with %d blocks", k, p != nil, b.blocks)
		}
		if p == nil {
			continue
		}
		if p.right != nil {
			t.Fatalf("rank %d: pennant root has a right child", k)
		}
		if got := countBlocks(p); got != 1<<k {
			t.Fatalf("rank %d: pennant holds %d blocks", k, got)
		}
	}
	if (b.hopper == nil) != (b.fill == 0) || b.fill < 0 || b.fill >= BlockSize {
		t.Fatalf("hopper nil = %v with fill %d", b.hopper == nil, b.fill)
	}
	if b.Len() != b.blocks*BlockSize+b.fill {
		t.Fatalf("Len %d: want %d blocks + %d", b.Len(), b.blocks, b.fill)
	}
	blocks := b.Blocks(nil)
	if len(blocks) != b.blocks+min(b.fill, 1) || b.fill > 0 && len(blocks[len(blocks)-1]) != b.fill {
		t.Fatalf("Blocks lists %d blocks for %d full and a hopper of %d", len(blocks), b.blocks, b.fill)
	}
}

func TestEmptyBag(t *testing.T) {
	b := New[int]()
	if !b.IsEmpty() || b.Len() != 0 {
		t.Fatal("new bag should be empty")
	}
	if got := collect(b); len(got) != 0 {
		t.Fatalf("empty bag walked %d elements", len(got))
	}
	if b.pennants != [MaxRank]*node[int]{} || b.hopper != nil || b.fill != 0 || len(b.Blocks(nil)) != 0 {
		t.Fatal("empty bag should have no pennants, no hopper and no blocks")
	}
	b.Union(nil)
	b.Union(New[int]())
	if !b.IsEmpty() {
		t.Fatal("union with empty bags should keep the bag empty")
	}
}

func TestInsertAndWalk(t *testing.T) {
	const n = 1000
	b := fill(0, n)
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if got := collect(b); !isIota(got, n) {
		t.Fatalf("walked %d elements, want each of 0 … %d once", len(got), n-1)
	}
	checkShape(t, b)
}

func TestPennantStructure(t *testing.T) {
	// 13 = 0b1101 blocks: pennants of rank 0, 2, 3, and 5 in the hopper.
	const n = 13*BlockSize + 5
	b := fill(0, n)
	var ranks []int
	for k, p := range b.pennants {
		if p != nil {
			ranks = append(ranks, k)
		}
	}
	if wantRanks := []int{0, 2, 3}; !slices.Equal(ranks, wantRanks) {
		t.Fatalf("pennant ranks %v, want %v", ranks, wantRanks)
	}
	total := b.fill
	for _, k := range ranks {
		total += countBlocks(b.pennants[k]) * BlockSize
	}
	if b.fill != 5 || total != n {
		t.Fatalf("pennants and a hopper of %d hold %d elements, want %d and 5 in the hopper", b.fill, total, n)
	}
	checkShape(t, b)
}

// TestBlocksCoverEveryElementOnce lists the blocks of bags around the
// block boundary and checks that they hold every element once, in
// insertion order, that all but the hopper's are full, and that Blocks
// appends to the slice it is given.
func TestBlocksCoverEveryElementOnce(t *testing.T) {
	const B = BlockSize
	sizes := []int{0, 1, B - 1, B, B + 1, 2 * B, 3*B + 7, 8 * B, 13*B + 5, 64*B - 1}
	for _, n := range sizes {
		b := fill(0, n)
		blocks := b.Blocks(nil)
		wantBlocks := n / B
		if n%B > 0 {
			wantBlocks++
		}
		if len(blocks) != wantBlocks || wantBlocks != b.blocks+min(b.fill, 1) {
			t.Fatalf("n=%d: %d blocks listed, want %d (%d full + hopper of %d)", n, len(blocks), wantBlocks, b.blocks, b.fill)
		}
		next := 0 // fill inserted 0, 1, …, n−1
		for i, block := range blocks {
			if i < b.blocks && len(block) != B {
				t.Fatalf("n=%d: block %d holds %d elements, want %d", n, i, len(block), B)
			}
			if i == b.blocks && len(block) != b.fill {
				t.Fatalf("n=%d: the hopper's block holds %d elements, want %d", n, len(block), b.fill)
			}
			for _, v := range block {
				if v != next {
					t.Fatalf("n=%d: block %d lists %d where insertion order has %d", n, i, v, next)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("n=%d: blocks hold %d elements", n, next)
		}
		// A reused dst is appended to: its first blocks stay as they were.
		prefix := fill(n, B+3).Blocks(nil)
		both := b.Blocks(prefix)
		if len(both) != len(prefix)+len(blocks) {
			t.Fatalf("n=%d: Blocks onto %d blocks returned %d, want %d", n, len(prefix), len(both), len(prefix)+len(blocks))
		}
		for i := range prefix {
			if &both[i][0] != &prefix[i][0] || len(both[i]) != len(prefix[i]) {
				t.Fatalf("n=%d: block %d of the reused slice was overwritten", n, i)
			}
		}
	}
}

func TestUnionPreservesAllElements(t *testing.T) {
	a := fill(0, 100)
	b := fill(100, 137)
	a.Union(b)
	if a.Len() != 237 {
		t.Fatalf("union Len = %d, want 237", a.Len())
	}
	if !b.IsEmpty() {
		t.Fatal("union should empty the argument bag")
	}
	if got := collect(a); !isIota(got, 237) {
		t.Fatalf("walked %d elements after union, want each of 0 … 236 once", len(got))
	}
}

// TestUnionHopperEdges unions bags of every size pairing around the block
// boundary: hopper sums below, at and above BlockSize, either or both
// hoppers absent, an empty receiver, and lengths that are exact multiples
// of BlockSize (so a filled hopper's carry ripples through the pennants).
func TestUnionHopperEdges(t *testing.T) {
	const B = BlockSize
	sizes := []int{0, 1, B/2 - 1, B / 2, B/2 + 1, B - 1, B, B + 1, 2*B - 1, 2 * B, 3*B + B/2, 7*B + B - 1, 8 * B}
	for _, na := range sizes {
		for _, nb := range sizes {
			a, b := fill(0, na), fill(na, nb)
			a.Union(b)
			checkShape(t, a)
			checkShape(t, b)
			if !b.IsEmpty() || b.Len() != 0 || len(collect(b)) != 0 {
				t.Fatalf("%d ∪ %d: argument not emptied", na, nb)
			}
			if got := collect(a); a.Len() != na+nb || !isIota(got, na+nb) {
				t.Fatalf("%d ∪ %d: Len %d, walked %d, want each of 0 … %d once", na, nb, a.Len(), len(got), na+nb-1)
			}
			// The emptied argument is a usable bag again.
			b.Insert(-1)
			if b.Len() != 1 {
				t.Fatalf("%d ∪ %d: argument unusable after union", na, nb)
			}
		}
	}
}

func TestPropertyUnionAndInsertPreserveMultiset(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := New[uint16]()
		b := New[uint16]()
		want := make(map[uint16]int)
		for _, x := range xs {
			a.Insert(x)
			want[x]++
		}
		for _, y := range ys {
			b.Insert(y)
			want[y]++
		}
		a.Union(b)
		if a.Len() != len(xs)+len(ys) || !b.IsEmpty() {
			return false
		}
		got := make(map[uint16]int)
		for _, block := range a.Blocks(nil) {
			for _, v := range block {
				got[v]++
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// runOps interprets prog as Insert/Union operations on four bags, each
// mirrored by a multiset oracle kept as a slice, and checks every bag
// against its oracle after every operation.  An operation is one byte —
// bits 0–1 the target bag, bits 2–3 the kind — and kinds 1 and 2 read one
// more:
//
//	0  insert one element
//	1  insert next-byte elements
//	2  union bag (next byte & 3) into the target
//	3  insert up to the next exact multiple of BlockSize
func runOps(t *testing.T, prog []byte) {
	t.Helper()
	const bags = 4
	var (
		bs     [bags]*Bag[int32]
		oracle [bags][]int32
		next   int32
	)
	for i := range bs {
		bs[i] = New[int32]()
	}
	insert := func(i, n int) {
		for ; n > 0; n-- {
			bs[i].Insert(next)
			oracle[i] = append(oracle[i], next)
			next = next*31 + 7 // repeats and disorder, deterministically
		}
	}
	arg := func(pc *int) int {
		*pc++
		if *pc < len(prog) {
			return int(prog[*pc])
		}
		return 0
	}
	for pc := 0; pc < len(prog); pc++ {
		i := int(prog[pc] & 3)
		switch prog[pc] >> 2 & 3 {
		case 0:
			insert(i, 1)
		case 1:
			insert(i, arg(&pc))
		case 2:
			j := arg(&pc) & 3
			if j == i {
				continue
			}
			bs[i].Union(bs[j])
			oracle[i] = append(oracle[i], oracle[j]...)
			oracle[j] = nil
		case 3:
			insert(i, BlockSize-bs[i].Len()%BlockSize)
		}
		for k, b := range bs {
			checkShape(t, b)
			if b.Len() != len(oracle[k]) || b.IsEmpty() != (len(oracle[k]) == 0) {
				t.Fatalf("op %d: bag %d Len %d IsEmpty %v, oracle holds %d", pc, k, b.Len(), b.IsEmpty(), len(oracle[k]))
			}
			slices.Sort(oracle[k])
			if got := collect(b); !slices.Equal(got, oracle[k]) {
				t.Fatalf("op %d: bag %d walked %d elements that differ from the oracle's %d", pc, k, len(got), len(oracle[k]))
			}
		}
	}
}

// opsSeeds are programs for runOps that reach the hopper edges; they seed
// both the property test and the fuzz corpus.
var opsSeeds = [][]byte{
	{},
	{0x00, 0x09, 0x00},                // one element unioned into an empty bag
	{0x04, 100, 0x05, 27, 0x08, 0x01}, // hoppers summing to BlockSize−1
	{0x04, 100, 0x05, 28, 0x08, 0x01}, // … to exactly BlockSize
	{0x04, 100, 0x05, 29, 0x08, 0x01, 0x09, 0x00},            // … to BlockSize+1, then back again
	{0x0c, 0x0d, 0x08, 0x01, 0x0c, 0x08, 0x02},               // full blocks only: both hoppers nil
	{0x0c, 0x05, 5, 0x08, 0x01, 0x09, 0x00},                  // one hopper nil, either side
	{0x0c, 0x0c, 0x0c, 0x0d, 0x05, 127, 0x04, 1, 0x08, 0x01}, // carry from the hoppers through ranks 0 and 1
	{0x04, 255, 0x04, 255, 0x05, 255, 0x06, 255, 0x08, 0x01, 0x0a, 0x00, 0x08, 0x02, 0x0c},
}

func TestPropertyOpsMatchOracle(t *testing.T) {
	for _, prog := range opsSeeds {
		runOps(t, prog)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 150; i++ {
		prog := make([]byte, rng.Intn(40))
		rng.Read(prog)
		runOps(t, prog)
	}
}

func FuzzBagOps(f *testing.F) {
	for _, prog := range opsSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64] // each op re-walks every bag; keep executions fast
		}
		runOps(t, prog)
	})
}

func TestInsertAllocatesOncePerBlock(t *testing.T) {
	b := fill(0, 3*BlockSize+17)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < BlockSize; i++ {
			b.Insert(i)
		}
	})
	if allocs > 1 {
		t.Fatalf("%v allocations per %d inserts, want at most 1", allocs, BlockSize)
	}
}

func BenchmarkInsert(b *testing.B) {
	const n = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i += n {
		bg := New[int32]()
		for v := int32(0); v < n; v++ {
			bg.Insert(v)
		}
	}
}

// BenchmarkUnion4096 reports the union alone as ns/union.  Building the two
// operands costs some hundred times the union and Union consumes them, so
// ns/op covers both; StopTimer around each build would run the default
// -benchtime for minutes.
func BenchmarkUnion4096(b *testing.B) {
	const size, pairs = 4096, 64
	var (
		bs     [2 * pairs]*Bag[int32]
		unions int
		timed  time.Duration
	)
	for unions < b.N {
		for i := range bs {
			bs[i] = New[int32]()
			for v := int32(0); v < size+int32(i); v++ { // hopper fills 0 … 127
				bs[i].Insert(v)
			}
		}
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			bs[2*i].Union(bs[2*i+1])
		}
		timed += time.Since(t0)
		unions += pairs
	}
	b.ReportMetric(float64(timed.Nanoseconds())/float64(unions), "ns/union")
}

var walkSink int32

// BenchmarkWalk lists a bag's blocks into a reused slice and sums them, the
// way a PBFS layer walks its frontier.
func BenchmarkWalk(b *testing.B) {
	const n = 1<<16 + 77
	bg := New[int32]()
	for v := int32(0); v < n; v++ {
		bg.Insert(v)
	}
	var blocks [][]int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int32
		blocks = bg.Blocks(blocks[:0])
		for _, block := range blocks {
			for _, v := range block {
				sum += v
			}
		}
		walkSink = sum
	}
	b.SetBytes(4 * n)
}
