package vec

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded through SplitMix64). It exists so that every
// experiment in the repository is reproducible from a single integer
// seed, and so that substreams handed to concurrent workers are
// statistically independent (Split) without any shared mutable state —
// the guides' "avoid mutable globals" rule applied to randomness.
//
// The zero value is NOT usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
	// gauss caches the second variate of the Box–Muller pair.
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from r. The derived stream is
// seeded from fresh output of r, so distinct calls yield distinct,
// decorrelated streams; r itself advances.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform sample from [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform sample from {0, ..., n-1}. It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vec: RNG.Intn with non-positive n")
	}
	// Plain modulo reduction, no rejection: the bias is below n/2^64
	// (< 2^-40 for every n we use), which is negligible for simulation.
	// Changing the reduction would change every stored result.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Box–Muller transform).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	// Sincos runs the same argument reduction and polynomials as Sin
	// and Cos, so the pair is bit-identical to calling both.
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.gauss = radius * sin
	r.hasGauss = true
	return radius * cos
}

// FillNormal fills dst with i.i.d. N(mean, sigma²) samples.
func (r *RNG) FillNormal(dst []float64, mean, sigma float64) {
	for i := range dst {
		dst[i] = mean + sigma*r.NormFloat64()
	}
}

// FillUniform fills dst with i.i.d. Uniform[lo, hi) samples.
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	w := hi - lo
	for i := range dst {
		dst[i] = lo + w*r.Float64()
	}
}

// NewNormal returns a freshly allocated vector of n i.i.d. N(mean, sigma²)
// samples.
func (r *RNG) NewNormal(n int, mean, sigma float64) []float64 {
	v := make([]float64, n)
	r.FillNormal(v, mean, sigma)
	return v
}

// Perm returns a uniformly random permutation of {0, ..., n-1}
// (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
