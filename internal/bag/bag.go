// Package bag implements the bag data structure of Leiserson and Schardl's
// work-efficient parallel breadth-first search (SPAA 2010), which the paper
// uses as its application benchmark: PBFS keeps the current and next
// frontier in bags declared as reducers so that logically parallel branches
// can insert discovered vertices without races.
//
// A bag is a list of "pennants" indexed by rank plus one partially filled
// block, the hopper.  Every pennant node holds a full block of BlockSize
// elements; a pennant of rank k holds exactly 2^k blocks: its root holds
// one and points at a complete binary tree of 2^k−1 more.  Insertion
// appends to the hopper and pushes a full hopper as a rank-0 pennant, which
// works like incrementing a binary counter; union is binary addition of the
// pennants plus a merge of the two hoppers.
package bag

// BlockSize is the number of elements in a pennant node, the PBFS paper's
// grain: one block is the unit of allocation on insert and the unit of
// serial work on traversal.
const BlockSize = 128

// node is one pennant node holding a full block.  The child pointers come
// first so that, for pointer-free T, the part of the node the garbage
// collector scans is its first 16 bytes.
type node[T any] struct {
	left, right *node[T]
	elems       [BlockSize]T
}

// union combines two pennants of equal rank into one of the next rank in
// O(1): y becomes the root of x's child tree.
func union[T any](x, y *node[T]) *node[T] {
	y.right = x.left
	x.left = y
	return x
}

// MaxRank bounds the number of pennant slots in a bag; 2^64 blocks can
// never be exceeded.
const MaxRank = 64

// Bag is an unordered multiset supporting O(1) amortised insertion,
// O(log n) union and linear traversal.
type Bag[T any] struct {
	// pennants[k] is non-nil exactly when bit k of blocks is set.
	pennants [MaxRank]*node[T]
	blocks   int
	// hopper holds the fill < BlockSize elements that are not yet a full
	// block; it is nil exactly when fill is 0.
	hopper *node[T]
	fill   int
}

// New returns an empty bag.
func New[T any]() *Bag[T] { return &Bag[T]{} }

// Len returns the number of elements in the bag.
func (b *Bag[T]) Len() int { return b.blocks*BlockSize + b.fill }

// IsEmpty reports whether the bag holds no elements.
func (b *Bag[T]) IsEmpty() bool { return b.blocks == 0 && b.fill == 0 }

// Insert adds one element to the hopper, allocating one node per BlockSize
// insertions.
func (b *Bag[T]) Insert(v T) {
	if b.fill == 0 {
		b.hopper = new(node[T])
	}
	b.hopper.elems[b.fill] = v
	b.fill++
	if b.fill == BlockSize {
		b.push(b.hopper)
		b.hopper, b.fill = nil, 0
	}
}

// push adds one full block as a rank-0 pennant, like incrementing a binary
// counter.
func (b *Bag[T]) push(p *node[T]) {
	k := 0
	for b.pennants[k] != nil {
		p = union(b.pennants[k], p)
		b.pennants[k] = nil
		k++
	}
	b.pennants[k] = p
	b.blocks++
}

// Union merges other into b, emptying other: the two hoppers merge into at
// most one full block, which is the carry into a binary addition of the
// pennants.
func (b *Bag[T]) Union(other *Bag[T]) {
	if other == nil || other.IsEmpty() {
		return
	}
	carry := b.mergeHopper(other)
	blocks := b.blocks + other.blocks
	if carry != nil {
		blocks++
	}
	// b's ranks above other's highest change only while a carry ripples.
	for k := 0; other.blocks>>k != 0 || carry != nil; k++ {
		b.pennants[k], carry = fullAdd(b.pennants[k], other.pennants[k], carry)
		other.pennants[k] = nil
	}
	b.blocks, other.blocks = blocks, 0
}

// mergeHopper moves other's hopper into b's by copying the smaller into
// the larger.  When that fills a block it returns the block, leaving the
// remainder as b's hopper.
func (b *Bag[T]) mergeHopper(other *Bag[T]) (full *node[T]) {
	if b.fill < other.fill {
		b.hopper, other.hopper = other.hopper, b.hopper
		b.fill, other.fill = other.fill, b.fill
	}
	if other.fill == 0 {
		return nil
	}
	moved := copy(b.hopper.elems[b.fill:], other.hopper.elems[:other.fill])
	b.fill += moved
	if b.fill == BlockSize {
		full = b.hopper
		b.fill = copy(other.hopper.elems[:], other.hopper.elems[moved:other.fill])
		b.hopper = nil
		if b.fill > 0 {
			b.hopper = other.hopper
		}
	}
	other.hopper, other.fill = nil, 0
	return full
}

// fullAdd combines up to three pennants of rank k into a result of rank k
// and a carry of rank k+1, exactly like a binary full adder.
func fullAdd[T any](x, y, carry *node[T]) (sum, carryOut *node[T]) {
	switch {
	case x == nil && y == nil:
		return carry, nil
	case x == nil && carry == nil:
		return y, nil
	case y == nil && carry == nil:
		return x, nil
	case x == nil:
		return nil, union(y, carry)
	case y == nil:
		return nil, union(x, carry)
	default:
		return carry, union(x, y)
	}
}

// Blocks appends every block in the bag to dst and returns the extended
// slice: the nodes of each pennant, largest rank first, then the hopper's
// filled prefix.  Every block but the hopper's holds BlockSize elements,
// and a caller that walks many bags reuses one dst.  A bag built by Insert
// alone lists its elements in insertion order; Union keeps each operand's
// pennants whole, so a union's blocks come in long runs of its operands'
// orders.  The caller must not modify the blocks.
func (b *Bag[T]) Blocks(dst [][]T) [][]T {
	for k := MaxRank - 1; k >= 0; k-- {
		dst = appendTree(dst, b.pennants[k])
	}
	if b.fill > 0 {
		dst = append(dst, b.hopper.elems[:b.fill])
	}
	return dst
}

// appendTree appends the blocks of the tree rooted at n: right subtree,
// node, left subtree.  union(x, y) makes x the root and hangs y on its
// left, above x's child tree, and Insert passes the older pennant as x, so
// this is the order the blocks were filled; a pennant's root, which has no
// right child, comes first.
func appendTree[T any](dst [][]T, n *node[T]) [][]T {
	for ; n != nil; n = n.left {
		dst = appendTree(dst, n.right)
		dst = append(dst, n.elems[:])
	}
	return dst
}
