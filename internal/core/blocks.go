package core

import (
	"iter"
	"slices"
	"sort"

	"repro/internal/grid"
)

// blocks is work waiting by block — the pool's pending streamlines, a
// slave's streamlines, a master's unassigned seeds, and a slave's
// per-block counts as its status reports them and its master models
// them: (block, V) entries in ascending block order, found by binary
// search. A block whose pile is empty or whose count is zero has no
// entry, so every walk visits only blocks holding work, lowest first —
// the order each decision over them runs in.
type blocks[V sized] struct {
	es []blockEntry[V]
	n  int // the entries' sizes, summed
}

type blockEntry[V sized] struct {
	b grid.BlockID
	v V
}

// sized is what a block holds: a pile of items, or a count of them.
type sized interface{ size() int }

// pile is the items waiting in one block, in arrival order.
type pile[T any] []T

func (p pile[T]) size() int { return len(p) }

// tally is how many items wait in one block.
type tally int

func (t tally) size() int { return int(t) }

// search returns b's position, or where it would be inserted, and
// whether it is present.
func (bs *blocks[V]) search(b grid.BlockID) (int, bool) {
	i := sort.Search(len(bs.es), func(i int) bool { return bs.es[i].b >= b })
	return i, i < len(bs.es) && bs.es[i].b == b
}

// get returns what block b holds: an empty pile or a zero count when it
// holds nothing.
func (bs *blocks[V]) get(b grid.BlockID) (v V) {
	if i, ok := bs.search(b); ok {
		v = bs.es[i].v
	}
	return v
}

// set makes v what block b holds; an empty v removes b's entry.
func (bs *blocks[V]) set(b grid.BlockID, v V) {
	i, ok := bs.search(b)
	n := v.size()
	switch {
	case ok && n > 0:
		bs.n += n - bs.es[i].v.size()
		bs.es[i].v = v
	case ok:
		bs.n -= bs.es[i].v.size()
		bs.es = slices.Delete(bs.es, i, i+1)
	case n > 0:
		bs.n += n
		bs.es = slices.Insert(bs.es, i, blockEntry[V]{b, v})
	}
}

// all walks the entries in ascending block order. The loop body may set
// or empty entries, the one being visited included: each step goes on
// from the first block above the one last yielded, so the walk never
// visits a block twice and never skips one the body left in place.
func (bs *blocks[V]) all() iter.Seq2[grid.BlockID, V] {
	return func(yield func(grid.BlockID, V) bool) {
		for i := 0; i < len(bs.es); {
			e := bs.es[i]
			if !yield(e.b, e.v) {
				return
			}
			i, _ = bs.search(e.b + 1)
		}
	}
}

// fullest returns the block holding the most, and what it holds — of
// several such the lowest block — passing over blocks skip reports true
// for (a nil skip passes over none). With no candidate it returns
// grid.NoBlock and an empty V.
func (bs *blocks[V]) fullest(skip func(grid.BlockID) bool) (grid.BlockID, V) {
	best := blockEntry[V]{b: grid.NoBlock}
	for _, e := range bs.es {
		if e.v.size() > best.v.size() && (skip == nil || !skip(e.b)) {
			best = e
		}
	}
	return best.b, best.v
}

// len returns the number of blocks holding work.
func (bs *blocks[V]) len() int { return len(bs.es) }

// total returns the items held across all blocks.
func (bs *blocks[V]) total() int { return bs.n }

// tallies returns how much each block holds, as a list of its own.
func (bs *blocks[V]) tallies() blocks[tally] {
	ts := blocks[tally]{es: make([]blockEntry[tally], len(bs.es)), n: bs.n}
	for i, e := range bs.es {
		ts.es[i] = blockEntry[tally]{e.b, tally(e.v.size())}
	}
	return ts
}

// push appends x to block b's pile.
func push[T any](bs *blocks[pile[T]], b grid.BlockID, x T) { bs.set(b, append(bs.get(b), x)) }

// takeFirst removes and returns the oldest n items of block b's pile.
func takeFirst[T any](bs *blocks[pile[T]], b grid.BlockID, n int) []T {
	p := bs.get(b)
	bs.set(b, p[n:])
	return p[:n]
}

// takeLast removes and returns the newest n items of block b's pile. Unless
// they were the whole pile they share its array, which the block's next
// push overwrites: copy them before pushing to b again.
func takeLast[T any](bs *blocks[pile[T]], b grid.BlockID, n int) []T {
	p := bs.get(b)
	bs.set(b, p[:len(p)-n])
	return p[len(p)-n:]
}
