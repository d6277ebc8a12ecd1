package sim

import "math"

// Rand is a small, fast, deterministic random source (splitmix64 /
// xorshift-based). It exists so simulation runs are reproducible from
// a single seed without importing math/rand's global state.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed. A zero seed is remapped
// so the generator never degenerates.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Jitter returns base scaled by a factor uniform in [1-spread, 1+spread].
// It is the standard way simulated durations acquire realistic noise.
func (r *Rand) Jitter(base float64, spread float64) float64 {
	if spread <= 0 {
		return base
	}
	return base * (1 + spread*(2*r.Float64()-1))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
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

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](r *Rand, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Bytes fills b with deterministic pseudo-random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for i+8 <= len(b) {
		v := r.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
		i += 8
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
