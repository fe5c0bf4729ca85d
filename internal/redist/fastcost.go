package redist

import (
	"fmt"
	"slices"
)

// FastCost computes the same locality-aware single-port redistribution time
// as Cost, without materializing the p x q transfer matrix. It exploits the
// structure of block-cyclic redistribution:
//
//   - source rank a sends everything it holds (its resident share) except
//     the volume destined for the same physical node,
//   - destination rank c receives everything it will hold except the volume
//     already resident on that node,
//   - only nodes shared between the two groups have a nonzero local volume,
//     and that volume is the count of blocks j with j ≡ a (mod p) and
//     j ≡ c (mod q), available in closed form via the CRT.
//
// The result is max over nodes of (net bytes sent + net bytes received)
// divided by the bandwidth — identical to SinglePortTime of TransferMatrix
// (asserted by tests) at O(p+q) instead of O(p*q) cost. FastCost validates
// its inputs and then runs the FastCostBuf kernel; processor ids must be
// non-negative.
func (m Model) FastCost(volume float64, src, dst []int) (float64, error) {
	if volume == 0 || slices.Equal(src, dst) {
		return 0, nil
	}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if len(src) == 0 || len(dst) == 0 {
		return 0, fmt.Errorf("redist: empty processor group (|src|=%d, |dst|=%d)", len(src), len(dst))
	}
	if volume < 0 || volume != volume || volume/2 == volume {
		return 0, fmt.Errorf("redist: invalid volume %v", volume)
	}
	if err := checkDistinct(src); err != nil {
		return 0, err
	}
	if err := checkDistinct(dst); err != nil {
		return 0, err
	}
	maxID := 0
	for _, g := range [2][]int{src, dst} {
		for _, id := range g {
			if id < 0 {
				return 0, fmt.Errorf("redist: negative processor id %d", id)
			}
			maxID = max(maxID, id)
		}
	}
	var buf *CostBuffer
	if !sortedIDs(src) || !sortedIDs(dst) {
		buf = NewCostBuffer(maxID + 1)
	}
	return m.FastCostBuf(volume, src, dst, buf), nil
}

// CostBuffer holds the id-indexed rank tables FastCostBuf uses for groups
// not in ascending id order. A buffer is sized by the largest physical
// processor id it will see and must not be shared between goroutines.
type CostBuffer struct {
	dstRank []int32 // physical id -> rank in dst, -1 if absent
	inSrc   []bool  // physical id -> member of src
}

// NewCostBuffer returns a buffer valid for processor ids in [0, maxProc).
func NewCostBuffer(maxProc int) *CostBuffer {
	b := &CostBuffer{
		dstRank: make([]int32, maxProc),
		inSrc:   make([]bool, maxProc),
	}
	for i := range b.dstRank {
		b.dstRank[i] = -1
	}
	return b
}

// FastCostBuf is the redistribution-cost kernel behind FastCost. Inputs must
// satisfy FastCost's contracts (validated model, non-empty groups of
// distinct in-range ids, finite non-negative volume); unlike FastCost this
// hot-path variant does not re-validate them. Groups in ascending id order
// (the canonical layout order every scheduler in this module emits) find
// their shared nodes by a two-pointer merge; any other order goes through
// buf's rank tables, so buf may be nil only for sorted groups.
func (m Model) FastCostBuf(volume float64, src, dst []int, buf *CostBuffer) float64 {
	if volume == 0 || slices.Equal(src, dst) {
		return 0
	}
	p, q := int64(len(src)), int64(len(dst))
	full, rem := m.blockCount(volume)
	srcSh := newShares(full, rem, p, m.BlockBytes)
	dstSh := newShares(full, rem, q, m.BlockBytes)

	// The CRT constants depend only on the group sizes, so hoist them out
	// of the per-rank loop.
	g, l := gcdLcm(p, q)
	qg := q / g
	inv := modInverse((p/g)%qg, qg)
	// local is the volume rank a of src and rank c of dst share because
	// they are the same physical node.
	local := func(a, c int) float64 {
		v := float64(countCongruentPre(full, int64(a), p, int64(c), g, l, qg, inv)) * m.BlockBytes
		if rem > 0 && full%p == int64(a) && full%q == int64(c) {
			v += rem
		}
		return v
	}

	var worst float64
	if sortedIDs(src) && sortedIDs(dst) {
		i, j := 0, 0
		for i < len(src) || j < len(dst) {
			switch {
			case j == len(dst) || (i < len(src) && src[i] < dst[j]):
				worst = max(worst, srcSh.At(i))
				i++
			case i == len(src) || dst[j] < src[i]:
				worst = max(worst, dstSh.At(j))
				j++
			default: // shared node, src rank i, dst rank j
				var loc float64
				switch {
				case p == q:
					// Equal group sizes: the layouts coincide rank-for-
					// rank, so a shared node keeps its data iff it holds
					// the same rank in both groups — exactly its share.
					if i == j {
						loc = srcSh.At(i)
					}
				default:
					loc = local(i, j)
				}
				worst = max(worst, (srcSh.At(i)-loc)+(dstSh.At(j)-loc))
				i++
				j++
			}
		}
		return max(worst, 0) / m.Bandwidth
	}

	for c, node := range dst {
		buf.dstRank[node] = int32(c)
	}
	for _, node := range src {
		buf.inSrc[node] = true
	}
	for a, node := range src {
		load := srcSh.At(a)
		if c := buf.dstRank[node]; c >= 0 {
			loc := local(a, int(c))
			load = (load - loc) + (dstSh.At(int(c)) - loc)
		}
		worst = max(worst, load)
	}
	for c, node := range dst {
		if !buf.inSrc[node] {
			worst = max(worst, dstSh.At(c))
		}
	}

	// Reset the touched entries for the next call.
	for _, node := range dst {
		buf.dstRank[node] = -1
	}
	for _, node := range src {
		buf.inSrc[node] = false
	}
	return max(worst, 0) / m.Bandwidth
}

// sortedIDs reports whether ids are in strictly ascending order.
func sortedIDs(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// countCongruentPre is countCongruent with the CRT constants (g = gcd(p,q),
// l = lcm(p,q), qg = q/g, inv = (p/g)^-1 mod qg) precomputed by the caller.
func countCongruentPre(n, a, p, c, g, l, qg, inv int64) int64 {
	if n <= 0 {
		return 0
	}
	if (c-a)%g != 0 {
		return 0
	}
	diff := ((c - a) / g) % qg
	if diff < 0 {
		diff += qg
	}
	j0 := (a + p*(diff*inv%qg)) % l
	if j0 < 0 {
		j0 += l
	}
	if j0 >= n {
		return 0
	}
	return (n-1-j0)/l + 1
}
