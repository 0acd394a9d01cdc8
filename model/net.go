package model

import (
	"fmt"

	"krum/internal/vec"
)

// Network is a feed-forward composition of Layers trained against a
// Loss. It implements Model with flat parameters laid out layer by
// layer in construction order. Construct with NewNetwork or the NewMLP /
// NewConvNet helpers.
type Network struct {
	inDim   int
	outDim  int
	layers  []Layer
	loss    Loss
	offsets []int // offsets[i] is the flat index of layer i's params
	dim     int
	dout    *vec.Dense // loss-gradient buffer, resized with the batch
}

var _ Model = (*Network)(nil)

// NewNetwork assembles the layers, validates the shape chain starting
// from inDim, and initializes weights deterministically from seed
// (He-style fan-in scaling, gain √2, which suits the ReLU networks of
// the experiments and is harmless for the others).
func NewNetwork(inDim int, loss Loss, seed uint64, layers ...Layer) (*Network, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("input dimension %d: %w", inDim, ErrConfig)
	}
	if loss == nil {
		return nil, fmt.Errorf("nil loss: %w", ErrConfig)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("no layers: %w", ErrConfig)
	}
	n := &Network{inDim: inDim, layers: layers, loss: loss}
	cur := inDim
	n.offsets = make([]int, len(layers))
	rng := vec.NewRNG(seed)
	for i, l := range layers {
		out, err := l.OutDim(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		n.offsets[i] = n.dim
		n.dim += l.ParamCount()
		cur = out
		switch lt := l.(type) {
		case *Dense:
			lt.initWeights(rng.Split(), 1.4142135623730951)
		case *Conv2D:
			lt.initWeights(rng.Split(), 1.4142135623730951)
		}
	}
	n.outDim = cur
	return n, nil
}

// NewMLP builds inDim → hidden[0] → ... → hidden[k-1] → outDim with the
// given activation between dense layers and the given loss on the raw
// output (fused softmax/sigmoid losses receive logits).
func NewMLP(inDim int, hidden []int, outDim int, act ActKind, loss Loss, seed uint64) (*Network, error) {
	var layers []Layer
	cur := inDim
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("hidden width %d: %w", h, ErrConfig)
		}
		layers = append(layers, NewDense(cur, h), NewActivation(act))
		cur = h
	}
	layers = append(layers, NewDense(cur, outDim))
	return NewNetwork(inDim, loss, seed, layers...)
}

// Dim implements Model.
func (n *Network) Dim() int { return n.dim }

// OutDim returns the per-sample output width.
func (n *Network) OutDim() int { return n.outDim }

// LossFunc returns the network's loss.
func (n *Network) LossFunc() Loss { return n.loss }

// Params implements Model.
func (n *Network) Params(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, n.dim)
	}
	for i, l := range n.layers {
		if c := l.ParamCount(); c > 0 {
			l.ReadParams(dst[n.offsets[i] : n.offsets[i]+c])
		}
	}
	return dst
}

// SetParams implements Model.
func (n *Network) SetParams(p []float64) error {
	if len(p) != n.dim {
		return fmt.Errorf("got %d params, want %d: %w", len(p), n.dim, ErrShape)
	}
	for i, l := range n.layers {
		if c := l.ParamCount(); c > 0 {
			l.WriteParams(p[n.offsets[i] : n.offsets[i]+c])
		}
	}
	return nil
}

// forward runs the batch through every layer and returns raw outputs
// (aliasing the last layer's buffer).
func (n *Network) forward(x *vec.Dense) (*vec.Dense, error) {
	if x.Cols != n.inDim {
		return nil, fmt.Errorf("input width %d, want %d: %w", x.Cols, n.inDim, ErrShape)
	}
	cur := x
	for _, l := range n.layers {
		cur = l.Forward(cur)
	}
	return cur, nil
}

// Gradient implements Model.
func (n *Network) Gradient(dst []float64, x, y *vec.Dense) (float64, error) {
	if len(dst) != n.dim {
		return 0, fmt.Errorf("gradient buffer %d, want %d: %w", len(dst), n.dim, ErrShape)
	}
	out, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	if n.dout == nil || n.dout.Rows != out.Rows || n.dout.Cols != out.Cols {
		n.dout = vec.NewDense(out.Rows, out.Cols)
	}
	loss, err := n.loss.Grad(n.dout, out, y)
	if err != nil {
		return 0, err
	}
	cur := n.dout
	for i := len(n.layers) - 1; i > 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
	// Nothing consumes the input gradient of the first layer, so a
	// dense first layer skips its dout·Wᵀ product.
	if d, ok := n.layers[0].(*Dense); ok {
		d.paramGrads(cur)
	} else {
		n.layers[0].Backward(cur)
	}
	for i, l := range n.layers {
		if c := l.ParamCount(); c > 0 {
			l.ReadGrads(dst[n.offsets[i] : n.offsets[i]+c])
		}
	}
	return loss, nil
}

// Loss implements Model.
func (n *Network) Loss(x, y *vec.Dense) (float64, error) {
	out, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	return n.loss.Value(out, y)
}

// Predict implements Model: raw outputs mapped through the loss
// transform (softmax/sigmoid probabilities, identity for MSE). The
// returned matrix is freshly allocated and owned by the caller.
func (n *Network) Predict(x *vec.Dense) (*vec.Dense, error) {
	out, err := n.forward(x)
	if err != nil {
		return nil, err
	}
	cp := out.Clone()
	n.loss.Transform(cp)
	return cp, nil
}

// Clone implements Model. The clone gets its own layer and loss-gradient
// buffers, so it can train concurrently with n.
func (n *Network) Clone() Model {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.CloneLayer()
	}
	c := &Network{
		inDim:   n.inDim,
		outDim:  n.outDim,
		layers:  layers,
		loss:    n.loss,
		offsets: append([]int(nil), n.offsets...),
		dim:     n.dim,
	}
	return c
}
