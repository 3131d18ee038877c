package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
)

// dumpBlocks renders a list as "block:value ... (total n)", in the order
// its walk visits the entries.
func dumpBlocks[V sized](bs *blocks[V]) string {
	var b strings.Builder
	for id, v := range bs.all() {
		fmt.Fprintf(&b, "%d:%v ", id, v)
	}
	fmt.Fprintf(&b, "(total %d)", bs.total())
	return b.String()
}

// TestBlocks pins the block-sorted work list every block-keyed user in
// the package shares: the walk is ascending whatever order blocks
// arrived in, takes come off a pile's head or tail, an emptied pile
// leaves no entry, and the fullest entry is the lowest block of a tie.
func TestBlocks(t *testing.T) {
	// fill pushes items numbered from 0 onto the given blocks in order.
	fill := func(bs *blocks[pile[int]], ids ...grid.BlockID) {
		for i, b := range ids {
			push(bs, b, i)
		}
	}
	for _, tc := range []struct {
		name string
		do   func(bs *blocks[pile[int]]) string // returns what the ops returned
		want string                             // the ops' result, then the list
	}{
		{
			name: "walk ascends whatever the insertion order",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 9, 2, 40, 2, 17, 9, 0)
				return fmt.Sprint(bs.len())
			},
			want: "5 | 0:[6] 2:[1 3] 9:[0 5] 17:[4] 40:[2] (total 7)",
		},
		{
			name: "take from the head",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 5, 5, 5, 5, 8)
				return fmt.Sprint(takeFirst(bs, 5, 3))
			},
			want: "[0 1 2] | 5:[3] 8:[4] (total 2)",
		},
		{
			name: "take from the tail",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 5, 5, 5, 5, 8)
				return fmt.Sprint(takeLast(bs, 5, 3))
			},
			want: "[1 2 3] | 5:[0] 8:[4] (total 2)",
		},
		{
			name: "an emptied pile leaves no entry",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 3, 5, 3, 7)
				head, tail := takeFirst(bs, 3, 2), takeLast(bs, 7, 1)
				return fmt.Sprint(head, tail, bs.len(), len(bs.get(3)), len(bs.get(7)))
			},
			want: "[0 2] [3] 1 0 0 | 5:[1] (total 1)",
		},
		{
			name: "set replaces a pile, and an empty one removes it",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 4, 6, 4)
				bs.set(4, nil)
				bs.set(6, pile[int]{5})
				bs.set(2, pile[int]{7, 8})
				return fmt.Sprint(bs.len())
			},
			want: "2 | 2:[7 8] 6:[5] (total 3)",
		},
		{
			name: "fullest: lowest block of a tie",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 12, 31, 12, 5, 31, 5, 3)
				b, p := bs.fullest()
				return fmt.Sprint(b, p)
			},
			want: "5 [3 5] | 3:[6] 5:[3 5] 12:[0 2] 31:[1 4] (total 7)",
		},
		{
			name: "fullest: nothing left to pick",
			do: func(bs *blocks[pile[int]]) string {
				b, _ := bs.fullest()
				fill(bs, 4, 6)
				bs.set(4, nil)
				bs.set(6, nil)
				b2, p := bs.fullest()
				return fmt.Sprint(b == grid.NoBlock, b2 == grid.NoBlock, len(p))
			},
			want: "true true 0 | (total 0)",
		},
		{
			name: "the walk survives the body dropping what it visits",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 3, 3, 5, 9, 9, 9, 11)
				var seen []grid.BlockID
				for b := range bs.all() {
					seen = append(seen, b)
					if b != 5 {
						bs.set(b, nil)
					}
				}
				return fmt.Sprint(seen)
			},
			want: "[3 5 9 11] | 5:[2] (total 1)",
		},
		{
			name: "the walk visits a block set above it, not one below",
			do: func(bs *blocks[pile[int]]) string {
				fill(bs, 4, 8)
				var seen []grid.BlockID
				for b := range bs.all() {
					seen = append(seen, b)
					if b == 4 {
						bs.set(6, pile[int]{9})
						bs.set(1, pile[int]{9})
					}
				}
				return fmt.Sprint(seen)
			},
			want: "[4 6 8] | 1:[9] 4:[0] 6:[9] 8:[1] (total 4)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bs blocks[pile[int]]
			got := tc.do(&bs) + " | " + dumpBlocks(&bs)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestBlockTallies pins the count form a slave's status and its master's
// model take: one (block, count) entry per non-empty pile, a zero count
// is no entry, and the total is the items counted.
func TestBlockTallies(t *testing.T) {
	var piles blocks[pile[string]]
	for _, b := range []grid.BlockID{9, 3, 9, 3, 9, 1} {
		push(&piles, b, "sl")
	}
	takeLast(&piles, 1, 1)
	ts := piles.tallies()
	if got, want := dumpBlocks(&ts), "3:2 9:3 (total 5)"; got != want {
		t.Errorf("tallies %s, want %s", got, want)
	}
	ts.set(9, ts.get(9)+4)
	ts.set(4, 1)
	ts.set(3, 0)
	ts.set(6, 0)
	if got, want := dumpBlocks(&ts), "4:1 9:7 (total 8)"; got != want {
		t.Errorf("after set: %s, want %s", got, want)
	}
	if b, n := ts.fullest(); b != 9 || n != 7 {
		t.Errorf("fullest = %d (%d), want 9 (7)", b, n)
	}
	if ts.set(9, 0); ts.len() != 1 || ts.total() != 1 {
		t.Errorf("zeroing 9 leaves %s, want 4:1 (total 1)", dumpBlocks(&ts))
	}
}
