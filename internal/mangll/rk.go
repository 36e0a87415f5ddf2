package mangll

// LSRK45 is the five-stage fourth-order low-storage Runge-Kutta scheme of
// Carpenter & Kennedy (1994), the time integrator the paper uses for both
// the advection and the seismic wave propagation solvers (§III.B, §IV.B).
type LSRK45 struct {
	res []float64 // 2N-storage residual register
	du  []float64 // scratch for the RHS evaluation
}

var lsrkA = [5]float64{
	0,
	-567301805773.0 / 1357537059087.0,
	-2404267990393.0 / 2016746695238.0,
	-3550918686646.0 / 2091501179385.0,
	-1275806237668.0 / 842570457699.0,
}

var lsrkB = [5]float64{
	1432997174477.0 / 9575080441755.0,
	5161836677717.0 / 13612068292357.0,
	1720146321549.0 / 2090206949498.0,
	3134564353537.0 / 4481467310338.0,
	2277821191437.0 / 14882151754819.0,
}

var lsrkC = [5]float64{
	0,
	1432997174477.0 / 9575080441755.0,
	2526269341429.0 / 6820363962896.0,
	2006345519317.0 / 3224310063776.0,
	2802321613138.0 / 2924317926251.0,
}

// Step advances u from t to t+dt. rhs must write du/dt for state u at time
// tt into du (du is pre-zeroed scratch owned by the integrator). Only the
// locally owned portion of u should be integrated; rhs is responsible for
// any ghost exchange it needs.
func (r *LSRK45) Step(u []float64, t, dt float64, rhs func(tt float64, u, du []float64)) {
	r.res = resize(r.res, len(u))
	clear(r.res)
	r.du = resize(r.du, len(u))
	du := r.du
	for s := 0; s < 5; s++ {
		for i := range du {
			du[i] = 0
		}
		rhs(t+lsrkC[s]*dt, u, du)
		a, b := lsrkA[s], lsrkB[s]
		for i := range u {
			r.res[i] = a*r.res[i] + dt*du[i]
			u[i] += b * r.res[i]
		}
	}
}

// resize returns buf resliced to length n, reallocating only when its
// capacity is short (the state shrinks and regrows across adapts).
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// LSRKA exposes the low-storage A coefficient of stage s (used by the
// single-precision device backend to mirror the host integrator).
func LSRKA(s int) float64 { return lsrkA[s] }

// LSRKB exposes the low-storage B coefficient of stage s.
func LSRKB(s int) float64 { return lsrkB[s] }
