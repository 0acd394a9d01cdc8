package model

import (
	"math"
	"testing"

	"krum/internal/vec"
)

// fullBackwardGradient is the reference Gradient: a fresh loss-gradient
// buffer and Backward through every layer, the first one included.
func fullBackwardGradient(n *Network, dst []float64, x, y *vec.Dense) float64 {
	out, err := n.forward(x)
	if err != nil {
		panic(err)
	}
	dout := vec.NewDense(out.Rows, out.Cols)
	loss, err := n.loss.Grad(dout, out, y)
	if err != nil {
		panic(err)
	}
	cur := dout
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
	for i, l := range n.layers {
		if c := l.ParamCount(); c > 0 {
			l.ReadGrads(dst[n.offsets[i] : n.offsets[i]+c])
		}
	}
	return loss
}

// TestGradientMatchesFullBackward pins Gradient (which skips the first
// layer's unused input gradient and reuses its loss-gradient buffer) to
// the full backward pass bit for bit, over repeated calls and a batch
// size change.
func TestGradientMatchesFullBackward(t *testing.T) {
	mustNet := func(n *Network, err error) *Network {
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cases := []struct {
		name    string
		net     *Network
		classes int
		binary  bool
	}{
		{"mlp-relu", mustNet(NewMLP(12, []int{9, 7}, 4, ActReLU, SoftmaxCrossEntropy{}, 1)), 4, false},
		{"mlp-sigmoid", mustNet(NewMLP(12, []int{9}, 4, ActSigmoid, SoftmaxCrossEntropy{}, 2)), 4, false},
		{"mlp-tanh-mse", mustNet(NewMLP(12, []int{9}, 3, ActTanh, MSE{}, 3)), 3, false},
		{"logistic", mustNet(NewLogistic(12, 4)), 1, true},
		{"linreg", mustNet(NewLinearRegression(12, 2, 5)), 2, false},
		{"convnet", mustNet(NewConvNet(8, 8, 2, 6, 3, 6)), 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := c.net.Clone().(*Network)
			got := make([]float64, c.net.Dim())
			want := make([]float64, c.net.Dim())
			rng := vec.NewRNG(9)
			in := c.net.inDim
			for _, batch := range []int{5, 5, 3} {
				x, y := randomBatch(rng, batch, in, c.classes)
				if c.binary {
					y = vec.NewDense(batch, 1)
					for i := range y.Data {
						y.Data[i] = float64(rng.Intn(2))
					}
				}
				lg, err := c.net.Gradient(got, x, y)
				if err != nil {
					t.Fatal(err)
				}
				lw := fullBackwardGradient(ref, want, x, y)
				if math.Float64bits(lg) != math.Float64bits(lw) {
					t.Fatalf("batch %d: loss %v, reference %v", batch, lg, lw)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("batch %d: gradient[%d] = %v, reference %v", batch, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestGradientAllocatesNothing covers the MLP shapes of the figure-grid
// cells (mnist size 10, hidden 16, batch 16) and the paper-scale cells
// (mnist size 16, hidden 48, batch 4): once the layer buffers exist, a
// Gradient call allocates nothing.
func TestGradientAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ in, hidden, batch int }{{100, 16, 16}, {256, 48, 4}} {
		m, err := NewMLP(c.in, []int{c.hidden}, 10, ActReLU, SoftmaxCrossEntropy{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		x, y := randomBatch(vec.NewRNG(2), c.batch, c.in, 10)
		grad := make([]float64, m.Dim())
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := m.Gradient(grad, x, y); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("in=%d hidden=%d batch=%d: Gradient allocates %v times per call, want 0",
				c.in, c.hidden, c.batch, allocs)
		}
	}
}

// TestCloneOwnsGradientBuffer checks that Clone does not share the
// loss-gradient buffer, so a clone can train concurrently.
func TestCloneOwnsGradientBuffer(t *testing.T) {
	m, err := NewMLP(6, []int{5}, 3, ActReLU, SoftmaxCrossEntropy{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(vec.NewRNG(5), 4, 6, 3)
	c := m.Clone().(*Network)
	for _, n := range []*Network{m, c} {
		if _, err := n.Gradient(make([]float64, n.Dim()), x, y); err != nil {
			t.Fatal(err)
		}
	}
	if c.dout == m.dout {
		t.Error("clone shares the loss-gradient buffer")
	}
}
