package redist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// FastCost must agree exactly with the matrix-based computation.
func TestFastCostMatchesMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(9)
		q := 1 + r.Intn(9)
		perm := r.Perm(14)
		src := perm[:p]
		// Overlap src and dst with probability ~1/2 per member.
		dst := make([]int, 0, q)
		pool := r.Perm(14)
		for _, x := range pool {
			if len(dst) == q {
				break
			}
			dst = append(dst, x)
		}
		volume := r.Float64() * 9999
		mat, err := testModel.TransferMatrix(volume, src, dst)
		if err != nil {
			return false
		}
		want := testModel.SinglePortTime(mat)
		got, err := testModel.FastCost(volume, src, dst)
		if err != nil {
			return false
		}
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFastCostIdenticalLayout(t *testing.T) {
	procs := []int{4, 9, 2}
	got, err := testModel.FastCost(1e7, procs, procs)
	if err != nil || got != 0 {
		t.Errorf("FastCost(same layout) = (%v, %v)", got, err)
	}
}

func TestFastCostErrors(t *testing.T) {
	if _, err := testModel.FastCost(10, nil, []int{0}); err == nil {
		t.Error("empty src accepted")
	}
	if _, err := testModel.FastCost(-1, []int{0}, []int{1}); err == nil {
		t.Error("negative volume accepted")
	}
	if _, err := testModel.FastCost(math.Inf(1), []int{0}, []int{1}); err == nil {
		t.Error("infinite volume accepted")
	}
	if _, err := testModel.FastCost(10, []int{0, 0}, []int{1}); err == nil {
		t.Error("duplicate src proc accepted")
	}
	if _, err := testModel.FastCost(10, []int{2, -1}, []int{1}); err == nil {
		t.Error("negative proc id accepted")
	}
}

func BenchmarkFastCost64x64(b *testing.B) {
	src := make([]int, 64)
	dst := make([]int, 64)
	for i := range src {
		src[i] = i
		dst[i] = 32 + i // half-overlap
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testModel.FastCost(1e6, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixCost64x64(b *testing.B) {
	src := make([]int, 64)
	dst := make([]int, 64)
	for i := range src {
		src[i] = i
		dst[i] = 32 + i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testModel.Cost(1e6, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// The FastCostBuf kernel must agree with the transfer-matrix oracle on both
// of its paths: groups in ascending id order (two-pointer merge) and in any
// other order (rank tables), with equal and unequal sizes, shared nodes and
// trailing partial blocks.
func TestFastCostBufMatchesMatrixProperty(t *testing.T) {
	buf := NewCostBuffer(20)
	var paths [2]int // sorted, unsorted
	var equal, shared, partial int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(9)
		q := p
		if r.Intn(3) > 0 {
			q = 1 + r.Intn(9)
		}
		src := r.Perm(20)[:p]
		dst := r.Perm(20)[:q]
		if r.Intn(2) == 0 {
			sort.Ints(src)
			sort.Ints(dst)
		}
		volume := r.Float64() * 9999
		if r.Intn(4) == 0 {
			volume = float64(r.Intn(200)) * testModel.BlockBytes
		}
		want, err := testModel.Cost(volume, src, dst)
		if err != nil {
			return false
		}
		if sortedIDs(src) && sortedIDs(dst) {
			paths[0]++
		} else {
			paths[1]++
		}
		if p == q {
			equal++
		}
		if _, rem := testModel.blockCount(volume); rem > 0 {
			partial++
		}
		for _, a := range src {
			if slices.Contains(dst, a) {
				shared++
				break
			}
		}
		got := testModel.FastCostBuf(volume, src, dst, buf)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
	if paths[0] == 0 || paths[1] == 0 || equal == 0 || shared == 0 || partial == 0 {
		t.Errorf("cases not covered: sorted %d, unsorted %d, p == q %d, shared nodes %d, partial block %d",
			paths[0], paths[1], equal, shared, partial)
	}
}

// perRankShares is the per-rank loop the closed-form Shares replaced: full
// blocks dealt round-robin, then the partial block added to rank full%g.
func perRankShares(m Model, volume float64, g int) []float64 {
	full, rem := m.blockCount(volume)
	share := make([]float64, g)
	base, extra := full/int64(g), full%int64(g)
	for r := range share {
		n := base
		if int64(r) < extra {
			n++
		}
		share[r] = float64(n) * m.BlockBytes
	}
	if rem > 0 {
		share[full%int64(g)] += rem
	}
	return share
}

// The closed-form share of every rank equals the per-rank loop bit for bit.
func TestSharesMatchPerRankLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []Model{testModel, {BlockBytes: 65536, Bandwidth: 1e9}, {BlockBytes: 0.75, Bandwidth: 3}} {
		for i := 0; i < 300; i++ {
			g := 1 + r.Intn(70)
			volume := r.Float64() * 100 * m.BlockBytes
			switch i % 3 {
			case 0:
				volume = float64(r.Intn(300)) * m.BlockBytes // no partial block
			case 1:
				volume = r.Float64() * m.BlockBytes // partial block only
			}
			want := perRankShares(m, volume, g)
			sh := m.Shares(volume, g)
			for rank, w := range want {
				if got := sh.At(rank); got != w {
					t.Fatalf("block %v, volume %v, g %d: rank %d share %v, want %v", m.BlockBytes, volume, g, rank, got, w)
				}
			}
		}
	}
}

// FuzzFastCostBuf decodes a block size, a volume and two processor groups
// from the fuzz bytes and checks the kernel against the matrix oracle.
// Sizes are dyadic (multiples of 1/4), so both sides add exact values.
func FuzzFastCostBuf(f *testing.F) {
	f.Add([]byte{7, 1, 0, 3, 4, 0, 1, 2, 3, 2, 3, 4, 5})
	f.Add([]byte{31, 200, 9, 5, 5, 3, 9, 4, 0, 7, 1, 1, 7, 0, 9, 4})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 5, 6})
	f.Add([]byte{255, 255, 255, 12, 8, 1, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 0, 2, 4, 6, 8, 10, 12, 14})
	const maxID = 24
	buf := NewCostBuffer(maxID)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m := Model{BlockBytes: float64(1+int(data[0])) / 4, Bandwidth: 100}
		volume := float64(int(data[1])<<8|int(data[2])) / 4
		p, q := 1+int(data[3])%12, 1+int(data[4])%12
		order := data[5]
		rest := data[6:]
		group := func(n int) []int {
			var g []int
			for len(g) < n && len(rest) > 0 {
				if id := int(rest[0]) % maxID; !slices.Contains(g, id) {
					g = append(g, id)
				}
				rest = rest[1:]
			}
			return g
		}
		src, dst := group(p), group(q)
		if len(src) == 0 || len(dst) == 0 {
			return
		}
		if order&1 != 0 {
			sort.Ints(src)
		}
		if order&2 != 0 {
			sort.Ints(dst)
		}
		want, err := m.Cost(volume, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		got := m.FastCostBuf(volume, src, dst, buf)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("block %v, volume %v, %v -> %v: kernel %v, matrix %v", m.BlockBytes, volume, src, dst, got, want)
		}
	})
}

func BenchmarkFastCostBuf64x64(b *testing.B) {
	src := make([]int, 64)
	dst := make([]int, 64)
	for i := range src {
		src[i] = i
		dst[i] = 32 + i
	}
	buf := NewCostBuffer(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testModel.FastCostBuf(1e6, src, dst, buf)
	}
}
