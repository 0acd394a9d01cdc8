package vec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d of 64 outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collide on %d of 64 outputs", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) only produced %d distinct values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("sample mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("sample variance = %v, want ~1", variance)
	}
}

func TestFillNormalParameters(t *testing.T) {
	r := NewRNG(6)
	v := make([]float64, 100000)
	r.FillNormal(v, 3, 2)
	mean := Sum(v) / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(v)))
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("sd = %v, want ~2", sd)
	}
}

func TestFillUniformRange(t *testing.T) {
	r := NewRNG(7)
	v := make([]float64, 10000)
	r.FillUniform(v, -2, 5)
	for _, x := range v {
		if x < -2 || x >= 5 {
			t.Fatalf("uniform sample out of [-2,5): %v", x)
		}
	}
	mean := Sum(v) / float64(len(v))
	if math.Abs(mean-1.5) > 0.1 {
		t.Errorf("uniform mean = %v, want ~1.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, idx := range p {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[idx] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := NewRNG(9)
	v := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	for _, x := range v {
		sum += x
	}
	if sum != 15 {
		t.Errorf("Shuffle changed elements: %v", v)
	}
}

// TestNormFloat64Golden pins the first 1000 NormFloat64 bit patterns
// from a fixed seed. Every dataset, initializer and attack draws its
// Gaussians here, so a change to these bytes changes every stored
// result and must come with a store.Version bump.
func TestNormFloat64Golden(t *testing.T) {
	const want = "49f456420041123cee123cf358f57975b75e83fe4d91cc5a11b9b706915f9d4c"
	r := NewRNG(12345)
	h := sha256.New()
	var b [8]byte
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.NormFloat64()))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("NormFloat64 digest %s, want %s", got, want)
	}
}
