package model

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// Layer is one stage of a feed-forward network. Forward caches whatever
// Backward needs; Backward consumes the upstream gradient, accumulates
// parameter gradients internally, and returns the gradient with respect
// to its input. Layers are stateful and owned by exactly one Network.
type Layer interface {
	// OutDim returns the per-sample output width given the input width,
	// or an error if the layer cannot accept it.
	OutDim(inDim int) (int, error)
	// Forward computes the layer output for a batch (rows = samples).
	Forward(x *vec.Dense) *vec.Dense
	// Backward propagates: given dL/dout it returns dL/din.
	Backward(dout *vec.Dense) *vec.Dense
	// ParamCount returns the number of trainable scalars.
	ParamCount() int
	// ReadParams copies the parameters into dst (len == ParamCount).
	ReadParams(dst []float64)
	// WriteParams overwrites the parameters from src.
	WriteParams(src []float64)
	// ReadGrads copies the accumulated gradients into dst.
	ReadGrads(dst []float64)
	// CloneLayer returns an independent deep copy.
	CloneLayer() Layer
}

// Dense is the fully connected layer y = x·W + b with W (in×out) and
// bias b (out). Construct with NewDense; weights are initialized by the
// Network with He/Xavier scaling.
type Dense struct {
	In, Out int
	w       *vec.Dense // In × Out
	b       []float64  // Out
	gw      *vec.Dense
	gb      []float64
	lastX   *vec.Dense
	dxBuf   *vec.Dense
	outBuf  *vec.Dense
}

// NewDense returns a zero-initialized fully connected layer; the owning
// Network initializes the weights.
func NewDense(in, out int) *Dense {
	return &Dense{
		In: in, Out: out,
		w:  vec.NewDense(in, out),
		b:  make([]float64, out),
		gw: vec.NewDense(in, out),
		gb: make([]float64, out),
	}
}

var _ Layer = (*Dense)(nil)

// OutDim implements Layer.
func (l *Dense) OutDim(inDim int) (int, error) {
	if inDim != l.In {
		return 0, fmt.Errorf("dense layer expects %d inputs, got %d: %w", l.In, inDim, ErrShape)
	}
	return l.Out, nil
}

// Forward implements Layer.
func (l *Dense) Forward(x *vec.Dense) *vec.Dense {
	l.lastX = x
	if l.outBuf == nil || l.outBuf.Rows != x.Rows {
		l.outBuf = vec.NewDense(x.Rows, l.Out)
	}
	vec.MatMul(l.outBuf, x, l.w)
	vec.AddRowVector(l.outBuf, l.b)
	return l.outBuf
}

// Backward implements Layer.
func (l *Dense) Backward(dout *vec.Dense) *vec.Dense {
	// dx = dout·Wᵀ on top of the parameter gradients.
	l.paramGrads(dout)
	if l.dxBuf == nil || l.dxBuf.Rows != dout.Rows {
		l.dxBuf = vec.NewDense(dout.Rows, l.In)
	}
	vec.MatMulABT(l.dxBuf, dout, l.w)
	return l.dxBuf
}

// paramGrads is Backward without the input gradient: dW = xᵀ·dout and
// db = Σ rows(dout). A network's first layer needs nothing more.
func (l *Dense) paramGrads(dout *vec.Dense) {
	vec.MatMulATB(l.gw, l.lastX, dout)
	vec.SumRows(l.gb, dout)
}

// ParamCount implements Layer.
func (l *Dense) ParamCount() int { return l.In*l.Out + l.Out }

// ReadParams implements Layer.
func (l *Dense) ReadParams(dst []float64) {
	copy(dst, l.w.Data)
	copy(dst[len(l.w.Data):], l.b)
}

// WriteParams implements Layer.
func (l *Dense) WriteParams(src []float64) {
	copy(l.w.Data, src)
	copy(l.b, src[len(l.w.Data):])
}

// ReadGrads implements Layer.
func (l *Dense) ReadGrads(dst []float64) {
	copy(dst, l.gw.Data)
	copy(dst[len(l.gw.Data):], l.gb)
}

// CloneLayer implements Layer.
func (l *Dense) CloneLayer() Layer {
	c := NewDense(l.In, l.Out)
	copy(c.w.Data, l.w.Data)
	copy(c.b, l.b)
	return c
}

// initWeights applies fan-in scaled Gaussian initialization.
func (l *Dense) initWeights(rng *vec.RNG, gain float64) {
	std := gain / math.Sqrt(float64(l.In))
	rng.FillNormal(l.w.Data, 0, std)
	vec.Zero(l.b)
}

// Activation is a parameter-free element-wise layer. Kind selects the
// nonlinearity.
type Activation struct {
	Kind   ActKind
	lastIn *vec.Dense
	outBuf *vec.Dense
	dxBuf  *vec.Dense
}

// ActKind enumerates supported element-wise nonlinearities.
type ActKind int

// Supported activation kinds. Start at 1 so the zero value is invalid
// (per the style guide's "start enums at one").
const (
	// ActReLU is max(0, x).
	ActReLU ActKind = iota + 1
	// ActSigmoid is 1/(1+e^{-x}).
	ActSigmoid
	// ActTanh is tanh(x).
	ActTanh
)

// String returns the lower-case name of the activation.
func (k ActKind) String() string {
	switch k {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return fmt.Sprintf("actkind(%d)", int(k))
	}
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

var _ Layer = (*Activation)(nil)

// OutDim implements Layer.
func (a *Activation) OutDim(inDim int) (int, error) {
	switch a.Kind {
	case ActReLU, ActSigmoid, ActTanh:
		return inDim, nil
	default:
		return 0, fmt.Errorf("unknown activation %d: %w", a.Kind, ErrConfig)
	}
}

// Forward implements Layer.
func (a *Activation) Forward(x *vec.Dense) *vec.Dense {
	a.lastIn = x
	if a.outBuf == nil || a.outBuf.Rows != x.Rows || a.outBuf.Cols != x.Cols {
		a.outBuf = vec.NewDense(x.Rows, x.Cols)
	}
	out := a.outBuf.Data
	switch a.Kind {
	case ActReLU:
		for i, v := range x.Data {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range x.Data {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case ActTanh:
		for i, v := range x.Data {
			out[i] = math.Tanh(v)
		}
	}
	return a.outBuf
}

// Backward implements Layer.
func (a *Activation) Backward(dout *vec.Dense) *vec.Dense {
	if a.dxBuf == nil || a.dxBuf.Rows != dout.Rows || a.dxBuf.Cols != dout.Cols {
		a.dxBuf = vec.NewDense(dout.Rows, dout.Cols)
	}
	dx := a.dxBuf.Data
	switch a.Kind {
	case ActReLU:
		for i, v := range a.lastIn.Data {
			if v > 0 {
				dx[i] = dout.Data[i]
			} else {
				dx[i] = 0
			}
		}
	case ActSigmoid:
		for i := range dx {
			s := a.outBuf.Data[i]
			dx[i] = dout.Data[i] * s * (1 - s)
		}
	case ActTanh:
		for i := range dx {
			th := a.outBuf.Data[i]
			dx[i] = dout.Data[i] * (1 - th*th)
		}
	}
	return a.dxBuf
}

// ParamCount implements Layer.
func (a *Activation) ParamCount() int { return 0 }

// ReadParams implements Layer.
func (a *Activation) ReadParams([]float64) {}

// WriteParams implements Layer.
func (a *Activation) WriteParams([]float64) {}

// ReadGrads implements Layer.
func (a *Activation) ReadGrads([]float64) {}

// CloneLayer implements Layer.
func (a *Activation) CloneLayer() Layer { return NewActivation(a.Kind) }
