package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"krum/internal/vec"
)

func TestWelfordAgainstClosedForm(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != len(data) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of that classic sample is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Error("variance of single point should be 0")
	}
	if w.Mean() != 3 {
		t.Errorf("Mean = %v", w.Mean())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose precision.
	var w Welford
	offset := 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		w.Add(x)
	}
	if math.Abs(w.Variance()-1) > 1e-6 {
		t.Errorf("Variance = %v, want 1", w.Variance())
	}
}

func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 2
		rng := vec.NewRNG(seed)
		var w Welford
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * 10
			w.Add(data[i])
		}
		mean, _ := MeanOf(data)
		var ss float64
		for _, x := range data {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMomentsRaw(t *testing.T) {
	var m Moments
	for _, x := range []float64{1, 2, 3} {
		m.Add(x)
	}
	wants := map[int]float64{1: 2, 2: 14.0 / 3, 3: 12, 4: 98.0 / 3}
	for r, want := range wants {
		if got := m.Raw(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("Raw(%d) = %v, want %v", r, got, want)
		}
	}
	if m.N() != 3 {
		t.Errorf("N = %d", m.N())
	}
}

func TestMomentsEmptyAndPanic(t *testing.T) {
	var m Moments
	if m.Raw(2) != 0 {
		t.Error("empty Moments should return 0")
	}
	m.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Raw(5) did not panic")
		}
	}()
	m.Raw(5)
}

func TestVecMean(t *testing.T) {
	vm := NewVecMean(2)
	got := vm.Mean(nil)
	if !vec.ApproxEqual(got, []float64{0, 0}, 0) {
		t.Errorf("empty VecMean = %v", got)
	}
	vm.Add([]float64{1, 2})
	vm.Add([]float64{3, 4})
	got = vm.Mean(nil)
	if !vec.ApproxEqual(got, []float64{2, 3}, 1e-15) {
		t.Errorf("VecMean = %v, want [2 3]", got)
	}
	if vm.N() != 2 {
		t.Errorf("N = %d", vm.N())
	}
}

func TestVecMeanDimensionPanic(t *testing.T) {
	vm := NewVecMean(2)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	vm.Add([]float64{1})
}

func TestQuantile(t *testing.T) {
	sample := []float64{3, 1, 2, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{q: 0, want: 1},
		{q: 1, want: 4},
		{q: 0.5, want: 2.5},
		{q: 0.25, want: 1.75},
	}
	for _, tt := range tests {
		got, err := Quantile(sample, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must be untouched.
	if sample[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Errorf("empty sample: err = %v, want ErrNoData", err)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("q out of range accepted")
	}
	got, err := Median([]float64{9})
	if err != nil || got != 9 {
		t.Errorf("Median single = %v, %v", got, err)
	}
}

func TestMeanOf(t *testing.T) {
	if _, err := MeanOf(nil); !errors.Is(err, ErrNoData) {
		t.Error("MeanOf(nil) should return ErrNoData")
	}
	got, err := MeanOf([]float64{1, 2, 3})
	if err != nil || got != 2 {
		t.Errorf("MeanOf = %v, %v", got, err)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x exactly
	a, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = (%v, %v, %v), want (3, 2, 1)", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrNoData) {
		t.Error("single point should return ErrNoData")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestLinearFitNoisyR2(t *testing.T) {
	rng := vec.NewRNG(11)
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = float64(i)
		y[i] = 1 + 0.5*x[i] + rng.NormFloat64()*0.01
	}
	_, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.5) > 0.01 {
		t.Errorf("slope = %v, want ~0.5", b)
	}
	if r2 < 0.999 {
		t.Errorf("r² = %v, want ≈1", r2)
	}
}

func TestNanosPerOpRepetitions(t *testing.T) {
	calls := 0
	op := func() error { calls++; return nil }
	// A target far above one call's cost runs the capped batch after
	// the calibration call.
	ns, err := NanosPerOp(time.Hour, 7, op)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1+7 {
		t.Errorf("calls = %d, want 8", calls)
	}
	if ns < 0 {
		t.Errorf("ns/op = %v", ns)
	}
	// A zero target runs a single timed call.
	calls = 0
	if _, err := NanosPerOp(0, 7, op); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("zero target: calls = %d, want 2", calls)
	}
}

func TestNanosPerOpError(t *testing.T) {
	boom := errors.New("boom")
	for _, failAt := range []int{1, 3} {
		calls := 0
		_, err := NanosPerOp(time.Hour, 5, func() error {
			calls++
			if calls == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != failAt {
			t.Errorf("failing call %d: err %v after %d calls", failAt, err, calls)
		}
	}
}
