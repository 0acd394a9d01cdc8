package data

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// SyntheticMNIST is the repository's stand-in for the MNIST digit task
// of the paper's image experiments: a procedural generator that renders
// the ten digits as anti-aliased stroke drawings on a Size×Size grid
// with randomized translation, scale, rotation, stroke thickness and
// pixel noise. Each class therefore has genuine intra-class variance
// and inter-class structure — an MLP improves steadily over SGD rounds
// and collapses visibly under Byzantine mis-aggregation, which is all
// the paper's Figures 4–7 require of the workload (see the workload
// substitution note in EXPERIMENTS.md).
//
// Construct with NewSyntheticMNIST.
type SyntheticMNIST struct {
	size    int
	noise   float64
	classes int
	// centers[i] is the unit-square coordinate of pixel i's center,
	// shared by rows and columns.
	centers []float64
}

// NewSyntheticMNIST returns a generator of size×size digit images with
// the given per-pixel Gaussian noise (0.05 is a good default). The
// target is a 10-way one-hot vector.
func NewSyntheticMNIST(size int, noise float64) (*SyntheticMNIST, error) {
	if size < 8 {
		return nil, fmt.Errorf("size %d too small (min 8): %w", size, ErrConfig)
	}
	if noise < 0 || noise > 1 {
		return nil, fmt.Errorf("noise %g outside [0, 1]: %w", noise, ErrConfig)
	}
	centers := make([]float64, size)
	for i := range centers {
		centers[i] = (float64(i) + 0.5) / float64(size)
	}
	return &SyntheticMNIST{size: size, noise: noise, classes: 10, centers: centers}, nil
}

// Dim implements Dataset.
func (m *SyntheticMNIST) Dim() int { return m.size * m.size }

// OutDim implements Dataset.
func (m *SyntheticMNIST) OutDim() int { return m.classes }

// Size returns the image side length.
func (m *SyntheticMNIST) Size() int { return m.size }

// segment is a stroke in the unit square (y grows downward).
type segment struct {
	x1, y1, x2, y2 float64
}

// digitStrokes defines each digit as a polyline skeleton in [0,1]².
// The shapes are schematic rather than calligraphic: what matters is
// that the ten classes are mutually distinguishable and internally
// variable once jittered.
var digitStrokes = [10][]segment{
	// 0: octagonal ring.
	{
		{0.50, 0.10, 0.70, 0.25}, {0.70, 0.25, 0.72, 0.50}, {0.72, 0.50, 0.70, 0.75},
		{0.70, 0.75, 0.50, 0.90}, {0.50, 0.90, 0.30, 0.75}, {0.30, 0.75, 0.28, 0.50},
		{0.28, 0.50, 0.30, 0.25}, {0.30, 0.25, 0.50, 0.10},
	},
	// 1: flag + vertical bar + base.
	{
		{0.35, 0.28, 0.52, 0.10}, {0.52, 0.10, 0.52, 0.88}, {0.38, 0.88, 0.66, 0.88},
	},
	// 2: top curve, diagonal, bottom bar.
	{
		{0.30, 0.28, 0.42, 0.13}, {0.42, 0.13, 0.62, 0.13}, {0.62, 0.13, 0.70, 0.30},
		{0.70, 0.30, 0.32, 0.85}, {0.32, 0.85, 0.72, 0.85},
	},
	// 3: double bump on the right.
	{
		{0.30, 0.15, 0.62, 0.14}, {0.62, 0.14, 0.70, 0.30}, {0.70, 0.30, 0.48, 0.48},
		{0.48, 0.48, 0.70, 0.64}, {0.70, 0.64, 0.62, 0.84}, {0.62, 0.84, 0.30, 0.85},
	},
	// 4: diagonal, crossbar, vertical.
	{
		{0.62, 0.10, 0.28, 0.60}, {0.28, 0.60, 0.76, 0.60}, {0.62, 0.10, 0.62, 0.90},
	},
	// 5: top bar, left drop, belly.
	{
		{0.70, 0.13, 0.34, 0.13}, {0.34, 0.13, 0.32, 0.45}, {0.32, 0.45, 0.60, 0.45},
		{0.60, 0.45, 0.70, 0.62}, {0.70, 0.62, 0.58, 0.85}, {0.58, 0.85, 0.30, 0.82},
	},
	// 6: descending hook with lower loop.
	{
		{0.62, 0.12, 0.40, 0.32}, {0.40, 0.32, 0.31, 0.60}, {0.31, 0.60, 0.40, 0.84},
		{0.40, 0.84, 0.62, 0.84}, {0.62, 0.84, 0.68, 0.64}, {0.68, 0.64, 0.52, 0.54},
		{0.52, 0.54, 0.33, 0.62},
	},
	// 7: top bar and steep diagonal.
	{
		{0.28, 0.14, 0.72, 0.14}, {0.72, 0.14, 0.44, 0.88},
	},
	// 8: stacked diamonds.
	{
		{0.50, 0.10, 0.34, 0.29}, {0.34, 0.29, 0.50, 0.47}, {0.50, 0.47, 0.66, 0.29},
		{0.66, 0.29, 0.50, 0.10}, {0.50, 0.47, 0.31, 0.68}, {0.31, 0.68, 0.50, 0.90},
		{0.50, 0.90, 0.69, 0.68}, {0.69, 0.68, 0.50, 0.47},
	},
	// 9: upper loop with tail.
	{
		{0.66, 0.34, 0.58, 0.15}, {0.58, 0.15, 0.38, 0.16}, {0.38, 0.16, 0.31, 0.34},
		{0.31, 0.34, 0.40, 0.50}, {0.40, 0.50, 0.62, 0.48}, {0.62, 0.48, 0.66, 0.34},
		{0.66, 0.34, 0.60, 0.88},
	},
}

// Sample implements Dataset: it renders a uniformly chosen digit.
func (m *SyntheticMNIST) Sample(rng *vec.RNG, x, y []float64) {
	digit := rng.Intn(m.classes)
	m.Render(rng, digit, x)
	for i := range y {
		y[i] = 0
	}
	y[digit] = 1
}

// Render draws one randomized instance of the given digit into img
// (len Size²), overwriting it. Pixels are in [0, 1].
//
// img doubles as the scratch space, so Render allocates nothing and
// shares no state between callers. Pass 1 runs stroke by stroke and
// leaves each pixel's minimum squared distance to the skeleton in img;
// pass 2 walks the pixels in row-major order, turning that distance
// into ink and drawing the pixel noise. The bytes equal the textbook
// pixel-by-pixel loop (renderReference in the tests): Sqrt is monotone
// and correctly rounded, so the root of the minimum is the minimum of
// the roots, and the noise draws keep their pixel order.
func (m *SyntheticMNIST) Render(rng *vec.RNG, digit int, img []float64) {
	if digit < 0 || digit >= m.classes {
		panic(fmt.Sprintf("data: digit %d out of range", digit))
	}
	if len(img) != m.Dim() {
		panic(fmt.Sprintf("data: image buffer %d, want %d", len(img), m.Dim()))
	}
	// Random geometric jitter.
	dx := 0.12 * (rng.Float64() - 0.5)
	dy := 0.12 * (rng.Float64() - 0.5)
	scale := 0.85 + 0.3*rng.Float64()
	theta := 0.24 * (rng.Float64() - 0.5)
	sin, cos := math.Sin(theta), math.Cos(theta)
	thickness := 0.035 + 0.03*rng.Float64()
	soft := 0.5 * thickness

	// Transform the skeleton once.
	strokes := digitStrokes[digit]
	var txs [maxStrokes]stroke
	for i, s := range strokes {
		x1 := transformX(s.x1, s.y1, scale, sin, cos) + dx
		y1 := transformY(s.x1, s.y1, scale, sin, cos) + dy
		vx := transformX(s.x2, s.y2, scale, sin, cos) + dx - x1
		vy := transformY(s.x2, s.y2, scale, sin, cos) + dy - y1
		txs[i] = stroke{x1: x1, y1: y1, vx: vx, vy: vy, len2: vx*vx + vy*vy}
	}

	// Pass 1: minimum squared distance per pixel, stroke-major. Along a
	// row the projection parameter t is monotone, so the clamp branches
	// predict well.
	centers := m.centers
	for i := range img {
		img[i] = math.Inf(1)
	}
	for i := range strokes {
		s := &txs[i]
		for py, cy := range centers {
			row := img[py*len(centers):][:len(centers)]
			wy := cy - s.y1
			for px, cx := range centers {
				if d2 := s.dist2(cx-s.x1, wy, cx, cy); d2 < row[px] {
					row[px] = d2
				}
			}
		}
	}

	// Pass 2: ink and noise in pixel order.
	for p, d2 := range img {
		d := math.Sqrt(d2)
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
		img[p] = intensity
	}
}

// transformX/transformY rotate about the glyph center (0.5, 0.5) and
// scale.
func transformX(x, y, scale, sin, cos float64) float64 {
	rx, ry := x-0.5, y-0.5
	return 0.5 + scale*(rx*cos-ry*sin)
}

func transformY(x, y, scale, sin, cos float64) float64 {
	rx, ry := x-0.5, y-0.5
	return 0.5 + scale*(rx*sin+ry*cos)
}

// maxStrokes bounds len(digitStrokes[d]) for every digit.
const maxStrokes = 8

// stroke is a transformed skeleton segment from (x1, y1) to
// (x1+vx, y1+vy), with len2 = vx²+vy².
type stroke struct {
	x1, y1, vx, vy, len2 float64
}

// dist2 returns the squared distance from the pixel center (cx, cy) to
// the stroke, given (wx, wy) = (cx-x1, cy-y1); the caller hoists wy out
// of the row loop. The projection parameter t is the clamped num/len2;
// the numerator alone decides the clamp when it is negative (t = 0) or
// at least len2 (the correctly rounded quotient is then ≥ 1, so t = 1),
// and inside that range the quotient already lies in [0, 1].
func (s *stroke) dist2(wx, wy, cx, cy float64) float64 {
	num := wx*s.vx + wy*s.vy
	var t float64
	if num >= s.len2 {
		t = 1
	} else if num > 0 {
		t = num / s.len2
	}
	dx := cx - (s.x1 + t*s.vx)
	dy := cy - (s.y1 + t*s.vy)
	return dx*dx + dy*dy
}
