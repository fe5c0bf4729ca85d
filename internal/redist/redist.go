// Package redist computes block-cyclic data-redistribution volumes and
// transfer times between processor groups, in the spirit of the fast runtime
// block-cyclic redistribution of Prylli & Tourancheau that the paper uses to
// estimate inter-task communication (§IV).
//
// A task distributes its output over its processor group block-cyclically:
// block j lives on the group member with rank j mod p. Redistribution to a
// consumer group of size q moves each block from its source rank to its
// destination rank j mod q. Blocks whose source and destination are the same
// physical node do not touch the network — this is the data locality that
// LoCBS exploits.
//
// Under the single-port model (each node at most one transfer per time step)
// the optimal preemptive schedule length for a transfer matrix M is
// max(max row sum, max column sum) / bandwidth, achievable by a
// Birkhoff-von-Neumann style matching decomposition; for disjoint groups it
// reduces exactly to the paper's estimate D / (min(p,q) * bandwidth).
package redist

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Transfer is one point-to-point movement between physical processors.
type Transfer struct {
	Src, Dst int     // physical processor ids
	Bytes    float64 // volume to move
}

// Model carries the parameters of the redistribution cost model.
type Model struct {
	// BlockBytes is the block-cyclic block size. Volumes smaller than one
	// block occupy a single (partial) block.
	BlockBytes float64
	// Bandwidth is the per-port link bandwidth in bytes per unit time.
	Bandwidth float64
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.BlockBytes <= 0 || math.IsNaN(m.BlockBytes) || math.IsInf(m.BlockBytes, 0) {
		return fmt.Errorf("redist: invalid block size %v", m.BlockBytes)
	}
	if m.Bandwidth <= 0 || math.IsNaN(m.Bandwidth) || math.IsInf(m.Bandwidth, 0) {
		return fmt.Errorf("redist: invalid bandwidth %v", m.Bandwidth)
	}
	return nil
}

// blockCount splits a volume into full blocks and a trailing partial block.
func (m Model) blockCount(volume float64) (full int64, rem float64) {
	if volume <= 0 {
		return 0, 0
	}
	full = int64(volume / m.BlockBytes)
	rem = volume - float64(full)*m.BlockBytes
	if rem < 1e-9*m.BlockBytes { // swallow float dust
		rem = 0
	}
	return full, rem
}

// countCongruent counts j in [0, n) with j ≡ a (mod p) and j ≡ c (mod q),
// via the Chinese Remainder Theorem.
func countCongruent(n int64, a, p, c, q int64) int64 {
	if n <= 0 {
		return 0
	}
	g, l := gcdLcm(p, q)
	if (c-a)%g != 0 {
		return 0
	}
	j0 := crt(a, p, c, q, g, l)
	if j0 >= n {
		return 0
	}
	return (n-1-j0)/l + 1
}

// gcdLcm returns gcd(p,q) and lcm(p,q) for positive p, q.
func gcdLcm(p, q int64) (g, l int64) {
	a, b := p, q
	for b != 0 {
		a, b = b, a%b
	}
	return a, p / a * q
}

// crt returns the smallest non-negative j with j ≡ a (mod p), j ≡ c (mod q),
// assuming solvability (g divides c-a). l = lcm(p,q).
func crt(a, p, c, q, g, l int64) int64 {
	// j = a + p*t where p*t ≡ c-a (mod q). Divide through by g.
	pg, qg := p/g, q/g
	diff := ((c - a) / g) % qg
	if diff < 0 {
		diff += qg
	}
	t := diff * modInverse(pg%qg, qg) % qg
	j := (a + p*t) % l
	if j < 0 {
		j += l
	}
	return j
}

// modInverse returns x with (a*x) ≡ 1 (mod m), m >= 1, gcd(a,m) = 1.
func modInverse(a, m int64) int64 {
	if m == 1 {
		return 0
	}
	// Extended Euclid.
	t, newT := int64(0), int64(1)
	r, newR := m, a%m
	if newR < 0 {
		newR += m
	}
	for newR != 0 {
		quot := r / newR
		t, newT = newT, t-quot*newT
		r, newR = newR, r-quot*newR
	}
	if t < 0 {
		t += m
	}
	return t
}

// Matrix is the redistribution volume matrix between two processor groups:
// Vol[i][j] is the number of bytes rank i of the source group sends to rank
// j of the destination group, network transfers only (volume resident on the
// same physical node is accounted in Local).
type Matrix struct {
	Src, Dst []int // physical ids, as given
	Vol      [][]float64
	Local    float64 // bytes that do not cross the network
	Total    float64 // total redistributed volume (network + local)
}

// TransferMatrix computes the exact block-cyclic redistribution matrix for
// moving volume bytes from layout src to layout dst. Both groups must be
// non-empty; a physical id may appear at most once per group.
func (m Model) TransferMatrix(volume float64, src, dst []int) (*Matrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(src) == 0 || len(dst) == 0 {
		return nil, fmt.Errorf("redist: empty processor group (|src|=%d, |dst|=%d)", len(src), len(dst))
	}
	if volume < 0 || math.IsNaN(volume) || math.IsInf(volume, 0) {
		return nil, fmt.Errorf("redist: invalid volume %v", volume)
	}
	if err := checkDistinct(src); err != nil {
		return nil, err
	}
	if err := checkDistinct(dst); err != nil {
		return nil, err
	}
	p, q := int64(len(src)), int64(len(dst))
	full, rem := m.blockCount(volume)
	mat := &Matrix{Src: src, Dst: dst, Total: volume}
	mat.Vol = make([][]float64, p)
	for i := range mat.Vol {
		mat.Vol[i] = make([]float64, q)
	}
	for a := int64(0); a < p; a++ {
		for c := int64(0); c < q; c++ {
			v := float64(countCongruent(full, a, p, c, q)) * m.BlockBytes
			if rem > 0 && full%p == a && full%q == c {
				v += rem
			}
			if v == 0 {
				continue
			}
			if src[a] == dst[c] {
				mat.Local += v
			} else {
				mat.Vol[a][c] = v
			}
		}
	}
	return mat, nil
}

func checkDistinct(procs []int) error {
	seen := make(map[int]struct{}, len(procs))
	for _, p := range procs {
		if _, dup := seen[p]; dup {
			return fmt.Errorf("redist: processor %d appears twice in a group", p)
		}
		seen[p] = struct{}{}
	}
	return nil
}

// NetworkBytes sums the off-node volume of the matrix.
func (mat *Matrix) NetworkBytes() float64 {
	var sum float64
	for _, row := range mat.Vol {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// PortLoads returns, for every physical node touched by the matrix, the
// total volume its single port must move (bytes sent plus bytes received;
// a node present in both groups accumulates both directions). SinglePortTime
// is the maximum of these divided by the bandwidth; audits use the full map
// to check per-port feasibility of a transfer against its time window.
func (mat *Matrix) PortLoads() map[int]float64 {
	load := make(map[int]float64)
	for i, row := range mat.Vol {
		for j, v := range row {
			if v == 0 {
				continue
			}
			load[mat.Src[i]] += v
			load[mat.Dst[j]] += v
		}
	}
	return load
}

// SinglePortTime is the optimal preemptive single-port schedule length for
// the matrix: max over nodes of the total volume it must send or receive,
// divided by the bandwidth. Nodes present in both groups accumulate both
// directions.
func (m Model) SinglePortTime(mat *Matrix) float64 {
	var worst float64
	for _, v := range mat.PortLoads() {
		if v > worst {
			worst = v
		}
	}
	return worst / m.Bandwidth
}

// Cost is the locality-aware redistribution time for moving volume bytes
// from layout src to layout dst: the single-port completion time of the
// off-node transfer matrix. Identical (set-equal and order-equal) layouts
// cost zero; the fast path also covers volume 0.
func (m Model) Cost(volume float64, src, dst []int) (float64, error) {
	if volume == 0 {
		return 0, nil
	}
	if slices.Equal(src, dst) {
		return 0, nil
	}
	mat, err := m.TransferMatrix(volume, src, dst)
	if err != nil {
		return 0, err
	}
	return m.SinglePortTime(mat), nil
}

// ResidentShare returns the fraction of the volume resident on each member
// of the layout: share[rank] for the group procs. Under block-cyclic
// distribution every rank holds (approximately, up to block granularity)
// an equal share; this is exact per-rank accounting used by LoCBS's
// locality-maximizing subset selection.
func (m Model) ResidentShare(volume float64, procs []int) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("redist: empty processor group")
	}
	if volume < 0 || math.IsNaN(volume) || math.IsInf(volume, 0) {
		return nil, fmt.Errorf("redist: invalid volume %v", volume)
	}
	sh := m.Shares(volume, len(procs))
	share := make([]float64, len(procs))
	for r := range share {
		share[r] = sh.At(r)
	}
	return share, nil
}

// Shares is the per-rank resident volume of a block-cyclic layout in closed
// form: the full blocks go round-robin, so every rank holds base of them and
// ranks below extra one more, and the trailing partial block lands on rank
// extra (full mod g).
type Shares struct {
	base, extra int64
	rem, bb     float64
}

// Shares returns the resident volumes of volume bytes laid out over g
// ranks. Like FastCostBuf it is a hot-path helper that assumes a validated
// model, g >= 1 and a finite non-negative volume.
func (m Model) Shares(volume float64, g int) Shares {
	full, rem := m.blockCount(volume)
	return newShares(full, rem, int64(g), m.BlockBytes)
}

func newShares(full int64, rem float64, g int64, blockBytes float64) Shares {
	return Shares{base: full / g, extra: full % g, rem: rem, bb: blockBytes}
}

// At is the volume resident on rank r.
func (s Shares) At(r int) float64 {
	n := s.base
	if int64(r) < s.extra {
		n++
	}
	v := float64(n) * s.bb
	if s.rem > 0 && int64(r) == s.extra {
		v += s.rem
	}
	return v
}

// Transfers flattens the matrix into point-to-point transfers, sorted by
// descending volume (a useful order for greedy port scheduling).
func (mat *Matrix) Transfers() []Transfer {
	var ts []Transfer
	for i, row := range mat.Vol {
		for j, v := range row {
			if v > 0 {
				ts = append(ts, Transfer{Src: mat.Src[i], Dst: mat.Dst[j], Bytes: v})
			}
		}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].Bytes != ts[b].Bytes {
			return ts[a].Bytes > ts[b].Bytes
		}
		if ts[a].Src != ts[b].Src {
			return ts[a].Src < ts[b].Src
		}
		return ts[a].Dst < ts[b].Dst
	})
	return ts
}
