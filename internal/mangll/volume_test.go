package mangll

import (
	"math"
	"math/rand"
	"testing"
)

// refApplyD is the per-direction reference the fused volume kernels are
// pinned against: out = D_a u for one element, each node summed over
// ascending q from +0.
func refApplyD(l *LGL, a int, u, out []float64) {
	np1 := l.N + 1
	stride := [3]int{1, np1, np1 * np1}[a]
	for n := range out {
		ia := n / stride % np1
		n0 := n - ia*stride
		var s float64
		for q := 0; q < np1; q++ {
			s += l.D[ia][q] * u[n0+q*stride]
		}
		out[n] = s
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// randomField fills u with random values, a quarter of them signed
// zeros.
func randomField(rng *rand.Rand, u []float64) {
	for i := range u {
		u[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			u[i] = math.Copysign(0, rng.NormFloat64())
		}
	}
}

// negZeroLines sets u to signed zeros such that every product
// D[0][q]*u_q along a line of direction a is -0: the case where a sum
// without its leading +0 would come out -0.
func negZeroLines(l *LGL, a int, u []float64) {
	np1 := l.N + 1
	stride := [3]int{1, np1, np1 * np1}[a]
	for n := range u {
		u[n] = math.Copysign(0, -l.D[0][n/stride%np1])
	}
}

// TestVolumeKernelsMatchReference pins Gradient and Divergence bitwise to
// a composition of per-direction D applications for N = 1..8: the
// register-blocked N=3 body and the generic body for every other degree.
func TestVolumeKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		l := NewLGL(n)
		w := &Work{m: &Mesh{L: l, Np1: n + 1}}
		np := (n + 1) * (n + 1) * (n + 1)
		buf := func() []float64 { return make([]float64, np) }
		u, g0, g1, g2, div := buf(), buf(), buf(), buf(), buf()
		f := [3][]float64{buf(), buf(), buf()}
		ref := [3][]float64{buf(), buf(), buf()}
		for trial := 0; trial < 20; trial++ {
			if trial < 3 {
				negZeroLines(l, trial, u)
			} else {
				randomField(rng, u)
			}
			w.Gradient(u, g0, g1, g2)
			for a, g := range [3][]float64{g0, g1, g2} {
				refApplyD(l, a, u, ref[a])
				if i := sameBits(g, ref[a]); i >= 0 {
					t.Fatalf("N=%d trial %d: Gradient dir %d node %d = %v, reference %v", n, trial, a, i, g[i], ref[a][i])
				}
			}

			for a := range f {
				if trial == 0 {
					negZeroLines(l, a, f[a])
				} else {
					randomField(rng, f[a])
				}
				refApplyD(l, a, f[a], ref[a])
			}
			w.Divergence(f[0], f[1], f[2], div)
			for i := range div {
				want := 0 + ref[0][i] + ref[1][i] + ref[2][i]
				if math.Float64bits(div[i]) != math.Float64bits(want) {
					t.Fatalf("N=%d trial %d: Divergence node %d = %v, reference %v", n, trial, i, div[i], want)
				}
			}
		}
	}
}

// TestGradientExactOnPolynomials checks that Gradient differentiates every
// tensor-product polynomial of degree <= N in each variable exactly, to
// round-off.
func TestGradientExactOnPolynomials(t *testing.T) {
	for n := 1; n <= 8; n++ {
		l := NewLGL(n)
		np1 := n + 1
		np := np1 * np1 * np1
		w := &Work{m: &Mesh{L: l, Np1: np1}}
		u, g0, g1, g2 := make([]float64, np), make([]float64, np), make([]float64, np), make([]float64, np)
		pw := func(x float64, k int) float64 { return math.Pow(x, float64(k)) }
		dpw := func(x float64, k int) float64 {
			if k == 0 {
				return 0
			}
			return float64(k) * math.Pow(x, float64(k-1))
		}
		for _, deg := range [][3]int{{0, 0, 0}, {n, 0, 0}, {0, n, 0}, {0, 0, n}, {n, n, n}, {1, n - 1, n / 2}} {
			node := func(idx int) (x, y, z float64) {
				return l.X[idx%np1], l.X[idx/np1%np1], l.X[idx/(np1*np1)]
			}
			for i := range u {
				x, y, z := node(i)
				u[i] = pw(x, deg[0]) * pw(y, deg[1]) * pw(z, deg[2])
			}
			w.Gradient(u, g0, g1, g2)
			for i := range u {
				x, y, z := node(i)
				want := [3]float64{
					dpw(x, deg[0]) * pw(y, deg[1]) * pw(z, deg[2]),
					pw(x, deg[0]) * dpw(y, deg[1]) * pw(z, deg[2]),
					pw(x, deg[0]) * pw(y, deg[1]) * dpw(z, deg[2]),
				}
				for a, g := range [3][]float64{g0, g1, g2} {
					if math.Abs(g[i]-want[a]) > 1e-11*float64(n*n) {
						t.Fatalf("N=%d x^%d y^%d z^%d: d/dxi_%d at node %d = %v, want %v", n, deg[0], deg[1], deg[2], a, i, g[i], want[a])
					}
				}
			}
		}
	}
}
