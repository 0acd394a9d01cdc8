package data

import (
	"errors"
	"math"
	"sync"
	"testing"

	"krum/internal/vec"
	"krum/model"
)

func TestSyntheticMNISTConstruction(t *testing.T) {
	if _, err := NewSyntheticMNIST(4, 0.05); !errors.Is(err, ErrConfig) {
		t.Error("tiny size accepted")
	}
	if _, err := NewSyntheticMNIST(28, 1.5); !errors.Is(err, ErrConfig) {
		t.Error("noise > 1 accepted")
	}
	m, err := NewSyntheticMNIST(28, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 784 || m.OutDim() != 10 || m.Size() != 28 {
		t.Errorf("shape: dim=%d out=%d size=%d", m.Dim(), m.OutDim(), m.Size())
	}
}

func TestRenderPixelsInRange(t *testing.T) {
	m, err := NewSyntheticMNIST(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(1)
	img := make([]float64, m.Dim())
	for digit := 0; digit < 10; digit++ {
		m.Render(rng, digit, img)
		var ink float64
		for _, p := range img {
			if p < 0 || p > 1 {
				t.Fatalf("digit %d: pixel %v out of [0,1]", digit, p)
			}
			ink += p
		}
		// A digit must leave a visible amount of ink but not flood the
		// image: between 2% and 60% of total intensity.
		frac := ink / float64(len(img))
		if frac < 0.02 || frac > 0.6 {
			t.Errorf("digit %d: ink fraction %v implausible", digit, frac)
		}
	}
}

func TestRenderPanicsOnBadArgs(t *testing.T) {
	m, err := NewSyntheticMNIST(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(1)
	t.Run("bad digit", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("digit 10 did not panic")
			}
		}()
		m.Render(rng, 10, make([]float64, m.Dim()))
	})
	t.Run("bad buffer", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("short buffer did not panic")
			}
		}()
		m.Render(rng, 0, make([]float64, 5))
	})
}

func TestInstancesOfSameDigitVary(t *testing.T) {
	m, err := NewSyntheticMNIST(16, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(2)
	a := make([]float64, m.Dim())
	b := make([]float64, m.Dim())
	m.Render(rng, 3, a)
	m.Render(rng, 3, b)
	if vec.ApproxEqual(a, b, 1e-9) {
		t.Error("two renders of the same digit are identical — no jitter")
	}
	// But they must still be correlated (same class): distance between
	// same-digit instances should be well below distance to a flat
	// image.
	if vec.Dist2(a, b) >= vec.Norm2(a) {
		t.Error("same-digit instances are uncorrelated")
	}
}

// The decisive test for the substitution: a linear softmax classifier
// must learn the ten classes far beyond chance from the stream alone.
func TestSyntheticMNISTIsLearnable(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	const size = 14
	ds, err := NewSyntheticMNIST(size, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := model.NewSoftmaxClassifier(ds.Dim(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(10)
	grad := make([]float64, clf.Dim())
	p := clf.Params(nil)
	const batch = 32
	x := vec.NewDense(batch, ds.Dim())
	y := vec.NewDense(batch, 10)
	for step := 0; step < 400; step++ {
		if err := FillBatch(ds, rng, x, y); err != nil {
			t.Fatal(err)
		}
		if _, err := clf.Gradient(grad, x, y); err != nil {
			t.Fatal(err)
		}
		vec.Axpy(-0.5, grad, p)
		if err := clf.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	// Held-out evaluation.
	testRNG := vec.NewRNG(999)
	tx := vec.NewDense(500, ds.Dim())
	ty := vec.NewDense(500, 10)
	if err := FillBatch(ds, testRNG, tx, ty); err != nil {
		t.Fatal(err)
	}
	acc, err := model.EvalAccuracy(clf, tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("linear classifier accuracy %v on synthetic MNIST, want ≥ 0.6 (chance = 0.1)", acc)
	}
	t.Logf("synthetic MNIST linear accuracy: %.3f", acc)
}

func TestSyntheticSpambaseShapeAndPrior(t *testing.T) {
	if _, err := NewSyntheticSpambase(0, 1); !errors.Is(err, ErrConfig) {
		t.Error("rate 0 accepted")
	}
	if _, err := NewSyntheticSpambase(1, 1); !errors.Is(err, ErrConfig) {
		t.Error("rate 1 accepted")
	}
	s, err := NewSyntheticSpambase(0.394, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != SpambaseDim || s.OutDim() != 1 {
		t.Errorf("dims (%d, %d)", s.Dim(), s.OutDim())
	}
	rng := vec.NewRNG(3)
	x := make([]float64, s.Dim())
	y := make([]float64, 1)
	spam := 0
	const n = 5000
	for i := 0; i < n; i++ {
		s.Sample(rng, x, y)
		if y[0] == 1 {
			spam++
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("negative frequency feature %d: %v", j, v)
			}
		}
	}
	rate := float64(spam) / n
	if rate < 0.35 || rate > 0.45 {
		t.Errorf("spam rate %v, want ≈0.394", rate)
	}
}

func TestSyntheticSpambaseIsLearnable(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	s, err := NewSyntheticSpambase(0.394, 2)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := model.NewLogistic(s.Dim(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(11)
	grad := make([]float64, clf.Dim())
	p := clf.Params(nil)
	const batch = 32
	x := vec.NewDense(batch, s.Dim())
	y := vec.NewDense(batch, 1)
	for step := 0; step < 500; step++ {
		if err := FillBatch(s, rng, x, y); err != nil {
			t.Fatal(err)
		}
		if _, err := clf.Gradient(grad, x, y); err != nil {
			t.Fatal(err)
		}
		vec.Axpy(-0.3, grad, p)
		if err := clf.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	tx := vec.NewDense(1000, s.Dim())
	ty := vec.NewDense(1000, 1)
	if err := FillBatch(s, vec.NewRNG(500), tx, ty); err != nil {
		t.Fatal(err)
	}
	acc, err := model.EvalAccuracy(clf, tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("logistic accuracy %v on synthetic spambase, want ≥ 0.8", acc)
	}
	t.Logf("synthetic spambase logistic accuracy: %.3f", acc)
}

// renderReference is the pixel-major renderer Render replaced: for
// each pixel in row-major order, the Euclidean distance to the nearest
// stroke, then ink and noise. It is the oracle for TestRenderMatchesReference.
func renderReference(m *SyntheticMNIST, rng *vec.RNG, digit int, img []float64) {
	dx := 0.12 * (rng.Float64() - 0.5)
	dy := 0.12 * (rng.Float64() - 0.5)
	scale := 0.85 + 0.3*rng.Float64()
	theta := 0.24 * (rng.Float64() - 0.5)
	sin, cos := math.Sin(theta), math.Cos(theta)
	thickness := 0.035 + 0.03*rng.Float64()
	soft := 0.5 * thickness

	strokes := digitStrokes[digit]
	txs := make([]segment, len(strokes))
	for i, s := range strokes {
		txs[i] = segment{
			x1: transformX(s.x1, s.y1, scale, sin, cos) + dx,
			y1: transformY(s.x1, s.y1, scale, sin, cos) + dy,
			x2: transformX(s.x2, s.y2, scale, sin, cos) + dx,
			y2: transformY(s.x2, s.y2, scale, sin, cos) + dy,
		}
	}

	sz := float64(m.size)
	for py := 0; py < m.size; py++ {
		cy := (float64(py) + 0.5) / sz
		for px := 0; px < m.size; px++ {
			cx := (float64(px) + 0.5) / sz
			d := math.Inf(1)
			for _, s := range txs {
				if sd := segmentDist(cx, cy, s); sd < d {
					d = sd
				}
			}
			var intensity float64
			switch {
			case d <= thickness:
				intensity = 1
			default:
				t := (d - thickness) / soft
				intensity = math.Exp(-t * t)
			}
			if m.noise > 0 {
				intensity += m.noise * rng.NormFloat64()
			}
			if intensity < 0 {
				intensity = 0
			} else if intensity > 1 {
				intensity = 1
			}
			img[py*m.size+px] = intensity
		}
	}
}

// segmentDist returns the Euclidean distance from point (px, py) to the
// segment s.
func segmentDist(px, py float64, s segment) float64 {
	vx, vy := s.x2-s.x1, s.y2-s.y1
	wx, wy := px-s.x1, py-s.y1
	len2 := vx*vx + vy*vy
	var t float64
	if len2 > 0 {
		t = (wx*vx + wy*vy) / len2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx := px - (s.x1 + t*vx)
	dy := py - (s.y1 + t*vy)
	return math.Sqrt(dx*dx + dy*dy)
}

// TestRenderMatchesReference pins Render's two-pass rewrite to the
// pixel-major reference bit for bit, and checks that both leave the
// RNG in the same state, across sizes, noise levels and all digits.
func TestRenderMatchesReference(t *testing.T) {
	draws := 300
	if testing.Short() {
		draws = 30
	}
	for _, size := range []int{8, 10, 16, 28} {
		for _, noise := range []float64{0, 0.05, 0.3} {
			m, err := NewSyntheticMNIST(size, noise)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, m.Dim())
			want := make([]float64, m.Dim())
			seed := uint64(size)*1000 + uint64(noise*100)
			r1, r2 := vec.NewRNG(seed), vec.NewRNG(seed)
			for i := 0; i < draws; i++ {
				digit := i % 10
				m.Render(r1, digit, got)
				renderReference(m, r2, digit, want)
				for p := range got {
					if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
						t.Fatalf("size %d noise %g draw %d digit %d pixel %d: %v, reference %v",
							size, noise, i, digit, p, got[p], want[p])
					}
				}
			}
			// Both streams must be in step: the cached Box–Muller
			// variate first, then the raw state.
			for k := 0; k < 4; k++ {
				if a, b := r1.NormFloat64(), r2.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("size %d noise %g: RNG streams diverged after rendering", size, noise)
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("size %d noise %g: RNG streams diverged after rendering", size, noise)
				}
			}
		}
	}
}

func TestRenderAllocatesNothing(t *testing.T) {
	m, err := NewSyntheticMNIST(16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(3)
	img := make([]float64, m.Dim())
	if a := testing.AllocsPerRun(100, func() { m.Render(rng, 8, img) }); a != 0 {
		t.Errorf("Render allocates %v times per call, want 0", a)
	}
}

// TestRenderConcurrent renders from one shared generator on several
// goroutines at once (run it under -race): each image must equal the
// serial render from the same seed.
func TestRenderConcurrent(t *testing.T) {
	m, err := NewSyntheticMNIST(12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	want := make([][]float64, workers)
	for w := range want {
		want[w] = make([]float64, m.Dim())
		m.Render(vec.NewRNG(uint64(w)), w, want[w])
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]float64, m.Dim())
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Render(vec.NewRNG(uint64(w)), w, got[w])
		}()
	}
	wg.Wait()
	for w := range got {
		if !vec.ApproxEqual(got[w], want[w], 0) {
			t.Errorf("worker %d: concurrent render differs from the serial one", w)
		}
	}
}
