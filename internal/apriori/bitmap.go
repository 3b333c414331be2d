package apriori

import (
	"math/bits"
	"sort"

	"github.com/wikistale/wikistale/internal/par"
)

// vertical is the TID-bitmap layout of a transaction set (Zaki's Eclat
// family): one bitmap per frequent single item, bit t set when transaction
// t contains the item. Candidate support is then the popcount of the
// AND of the member bitmaps — O(candidates × words) with no hashing and
// no per-transaction subset enumeration. Only items that are themselves
// frequent get a bitmap: by downward closure no infrequent item can occur
// in a frequent itemset, so candidates never reference the others.
//
// Items are interned to dense IDs 0..m-1 in ascending item order, so
// lexicographic order over dense IDs equals lexicographic order over the
// original items and level sets stay sorted without re-sorting.
type vertical struct {
	items  []Item // dense ID -> original item, ascending
	counts []int  // dense ID -> L1 support
	words  int    // bitmap length in uint64 words
	bits   [][]uint64
}

// newVertical counts singles, keeps those reaching minCount, and builds
// their TID bitmaps in one pass over the transactions.
func newVertical(txns []Transaction, minCount int) *vertical {
	singles := make(map[Item]int)
	for _, t := range txns {
		for _, it := range t {
			singles[it]++
		}
	}
	v := &vertical{}
	for it, c := range singles {
		if c >= minCount {
			v.items = append(v.items, it)
		}
	}
	sort.Slice(v.items, func(i, j int) bool { return v.items[i] < v.items[j] })
	v.counts = make([]int, len(v.items))
	dense := make(map[Item]int32, len(v.items))
	for j, it := range v.items {
		v.counts[j] = singles[it]
		dense[it] = int32(j)
	}
	v.words = (len(txns) + 63) / 64
	backing := make([]uint64, len(v.items)*v.words)
	v.bits = make([][]uint64, len(v.items))
	for j := range v.bits {
		v.bits[j] = backing[j*v.words : (j+1)*v.words]
	}
	for ti, t := range txns {
		w, m := ti>>6, uint64(1)<<uint(ti&63)
		for _, it := range t {
			if j, ok := dense[it]; ok {
				v.bits[j][w] |= m
			}
		}
	}
	return v
}

// original translates a dense-ID itemset back to original items.
func (v *vertical) original(s Itemset) Itemset {
	out := make(Itemset, len(s))
	for i, d := range s {
		out[i] = v.items[d]
	}
	return out
}

// countWorkGrain is how many candidates one worker claims per round; small
// enough to balance skewed candidate sizes, large enough to amortize the
// atomic fetch.
const countWorkGrain = 128

// parallelCountThreshold is the candidates×words product below which the
// counting loop runs single-threaded; under it, goroutine startup costs
// more than the popcounts.
const parallelCountThreshold = 1 << 14

// countCandidates returns the support of every candidate, counted as the
// popcount of the AND of the member bitmaps. Counts land at their
// candidate's index, so the result is deterministic regardless of how the
// work is scheduled across workers.
func (v *vertical) countCandidates(candidates []Itemset) []int {
	counts := make([]int, len(candidates))
	grain := countWorkGrain
	if len(candidates)*v.words < parallelCountThreshold {
		// One chunk: the calling goroutine counts everything.
		grain = len(candidates)
	}
	par.For(len(candidates), grain, func() func(int) {
		scratch := make([]uint64, v.words)
		return func(i int) { counts[i] = v.support(candidates[i], scratch) }
	})
	return counts
}

// support counts one candidate, using scratch (words long) for the k>2
// AND fold.
func (v *vertical) support(c Itemset, scratch []uint64) int {
	if len(c) == 2 {
		a, b := v.bits[c[0]], v.bits[c[1]]
		n := 0
		for w := range a {
			n += bits.OnesCount64(a[w] & b[w])
		}
		return n
	}
	copy(scratch, v.bits[c[0]])
	for _, d := range c[1:] {
		bm := v.bits[d]
		for w := range scratch {
			scratch[w] &= bm[w]
		}
	}
	n := 0
	for _, w := range scratch {
		n += bits.OnesCount64(w)
	}
	return n
}
