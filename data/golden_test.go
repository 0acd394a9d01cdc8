package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"krum/internal/vec"
)

// TestSampleGolden pins the exact bytes every dataset's Sample emits:
// a SHA-256 over the little-endian float64 bits of x then y for 200
// consecutive draws from a fixed seed. Sampling is scalar code that no
// kernel tier touches, so the hashes hold on every host. Any change to
// a generator's arithmetic or RNG draw order breaks them; such a change
// is a store.Version bump, not a refactor.
func TestSampleGolden(t *testing.T) {
	mnist10 := mustDS(NewSyntheticMNIST(10, 0.05))
	cases := []struct {
		name string
		ds   Dataset
		want string
	}{
		{"mnist10", mnist10, "145c790dce4a6e3795fe179eb9f0c377d372563935c488e4fbe3d56e39846926"},
		{"mnist16", mustDS(NewSyntheticMNIST(16, 0.05)), "1468be1ede716af1e4edf6b4436bbbb5f78146e6cb7973ecdf9898928a6774d4"},
		{"mixture", mustDS(NewGaussianMixture(3, 6, 2, 0.5, 7)), "454a2bd2cbd0c4da77fbf9cd1e6c448ade9f86d1419c6bf4b902cf135f3c50ab"},
		{"spambase", mustDS(NewSyntheticSpambase(0.39, 7)), "b0f3d99da5ca546590ff851c66b4273e0c0f8478507e632f9ed8e21cfdb02075"},
		{"linreg", mustDS(NewLinearRegressionStream(5, 2, 0.1, 7)), "afa56128d2169a49539dae92cde8bc573029f097f218fddaee6df06750ded0fb"},
		{"labelflip", LabelFlip{Base: mnist10}, "a2a419b117c98d58906fca6b0af6735c8499808b8a3bb5edf76b14bb4f03073d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := sampleDigest(c.ds, vec.NewRNG(2024), 200); got != c.want {
				t.Errorf("sample digest %s, want %s", got, c.want)
			}
		})
	}
}

func mustDS[D Dataset](ds D, err error) D {
	if err != nil {
		panic(err)
	}
	return ds
}

// sampleDigest hashes n consecutive Sample draws of ds.
func sampleDigest(ds Dataset, rng *vec.RNG, n int) string {
	x := make([]float64, ds.Dim())
	y := make([]float64, ds.OutDim())
	h := sha256.New()
	var b [8]byte
	for i := 0; i < n; i++ {
		ds.Sample(rng, x, y)
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, v := range y {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
