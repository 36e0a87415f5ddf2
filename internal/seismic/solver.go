package seismic

import (
	"math"
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// NC is the number of fields per node: velocity (3) and the symmetric
// strain tensor (6: xx yy zz yz xz xy).
const NC = 9

// Options configure the wave propagation solver.
type Options struct {
	Degree   int // polynomial degree (paper: N = 6 and N = 7)
	CFL      float64
	FreqHz   float64 // source frequency used for wavelength meshing
	PPW      float64 // points per wavelength (paper: "at least 10")
	MaxLevel int8
	MinLevel int8
	// NoOverlap disables the split-phase ghost exchange (see
	// advect.Options.NoOverlap); kernel order is identical either way, so
	// results are bitwise equal. Baseline for the overlap measurements.
	NoOverlap bool
}

// DefaultOptions mirrors the paper's setup at laptop scale.
func DefaultOptions() Options {
	return Options{Degree: 4, CFL: 0.4, FreqHz: 0.002, PPW: 8, MaxLevel: 5, MinLevel: 1}
}

// Solver advances the velocity-strain elastic system on a forest mesh.
type Solver struct {
	Opts Options
	Comm *mpi.Comm
	Conn *connectivity.Conn
	F    *core.Forest
	Mesh *mangll.Mesh
	LGL  *mangll.LGL
	Met  *metrics.Registry

	// Pre-resolved instrument handles so the hot path never touches the
	// registry maps, plus the live progress gauges /healthz reads.
	live               metrics.Progress
	hRHS, hExch, hStep *metrics.Histogram

	// Q holds the 9 fields per node, local elements only.
	Q    []float64
	Time float64

	MatFn func(p [3]float64) Material
	mat   []Material // per local node

	rk  mangll.LSRK45
	buf []float64 // local+ghost work array

	// Per-worker hot-path scratch, allocated once per mesh so RHS is
	// allocation-free in steady state. One entry per kernel worker; the
	// serial path uses ws[0].
	ws    []seisScratch
	kern  seisKernel
	kQ    []float64 // RHS input/output of the Apply in progress
	kDQ   []float64
	rhsFn func(tt float64, u, du []float64)

	// Source, if non-nil, adds a body-force density to the velocity
	// equations: f(t, x). Like MatFn it must be pure: kernel hooks may
	// evaluate it from pool workers.
	Source func(t float64, p [3]float64) [3]float64

	maxVp float64
}

// seisScratch is one worker's kernel buffers.
type seisScratch struct {
	sig          [][6]float64 // np
	der          [3][]float64 // np each: the reference derivatives
	field        []float64    // np
	grads        [][3]float64 // np*NC
	mine, theirs []float64    // nf*NC
	xs, area     [][3]float64 // nf
	fm, fp       []float64    // NC
	gAll         [][]float64  // NC x nf
	comp, fx, fq []float64    // nf
}

// seisKernel adapts the solver to the mangll.Kernel interface. It is a
// field of Solver so the interface conversion (&s.kern) never allocates.
type seisKernel struct{ s *Solver }

func (k *seisKernel) NumComps() int { return NC }

func (k *seisKernel) Volume(w *mangll.Work, elems []int32) {
	k.s.volumeTerm(w, elems, k.s.kQ, k.s.kDQ)
}

func (k *seisKernel) InteriorFace(w *mangll.Work, links []int32) {
	k.s.surfaceTerm(w, links)
}

func (k *seisKernel) BoundaryFace(w *mangll.Work, links []int32) {
	k.s.surfaceTerm(w, links)
}

func (k *seisKernel) Lift(w *mangll.Work, links []int32) {
	k.s.liftTerm(w, links, k.s.kDQ)
}

// NewSolver builds a solver over an existing (balanced, partitioned)
// forest with the given material model.
func NewSolver(comm *mpi.Comm, f *core.Forest, opts Options, matFn func(p [3]float64) Material) *Solver {
	s := &Solver{
		Opts: opts, Comm: comm, Conn: f.Conn, F: f,
		LGL: mangll.NewLGL(opts.Degree), MatFn: matFn,
		Met: metrics.NewRegistry(),
	}
	s.live = metrics.NewProgress(s.Met)
	s.hRHS = s.Met.Histogram("rhs", metrics.UnitDuration)
	s.hExch = s.Met.Histogram("exchange", metrics.UnitDuration)
	s.hStep = s.Met.Histogram("waveprop", metrics.UnitDuration)
	s.kern = seisKernel{s: s}
	// One closure for the integrator, built once so Step allocates nothing.
	s.rhsFn = func(tt float64, u, du []float64) { s.RHS(tt, u, du) }
	s.rebuild()
	s.Q = make([]float64, s.Mesh.NumLocal*s.Mesh.Np*NC)
	return s
}

func (s *Solver) rebuild() {
	g := s.F.Ghost()
	s.Mesh = mangll.NewMesh(s.F, g, s.LGL)
	m := s.Mesh
	s.mat = make([]Material, m.NumLocal*m.Np)
	vp := 0.0
	for i := range s.mat {
		s.mat[i] = s.MatFn([3]float64{m.X[0][i], m.X[1][i], m.X[2][i]})
		if v := s.mat[i].Vp(); v > vp {
			vp = v
		}
	}
	s.maxVp = mpi.AllreduceMax(s.Comm, vp)
	s.buf = make([]float64, (m.NumLocal+m.NumGhost)*m.Np*NC)
	np, nf := m.Np, m.Nf
	s.ws = make([]seisScratch, s.Comm.Workers())
	for w := range s.ws {
		sc := &s.ws[w]
		sc.sig = make([][6]float64, np)
		for r := range sc.der {
			sc.der[r] = make([]float64, np)
		}
		sc.field = make([]float64, np)
		sc.grads = make([][3]float64, np*NC)
		sc.mine = make([]float64, nf*NC)
		sc.theirs = make([]float64, nf*NC)
		sc.xs = make([][3]float64, nf)
		sc.area = make([][3]float64, nf)
		sc.fm = make([]float64, NC)
		sc.fp = make([]float64, NC)
		sc.gAll = make([][]float64, NC)
		for c := range sc.gAll {
			sc.gAll[c] = make([]float64, nf)
		}
		sc.comp = make([]float64, nf)
		sc.fx = make([]float64, nf)
		sc.fq = make([]float64, nf)
	}
}

// DT returns the CFL-limited time step.
func (s *Solver) DT() float64 {
	n := float64(s.Opts.Degree)
	return s.Opts.CFL * s.Mesh.MinLen / (s.maxVp * (2*n + 1))
}

// stress computes the stress components from the strain components of one
// node: sigma = 2 mu E + lambda tr(E) I, ordered xx yy zz yz xz xy.
func stress(mat *Material, e []float64) (sxx, syy, szz, syz, sxz, sxy float64) {
	tr := e[0] + e[1] + e[2]
	l, mu := mat.Lambda, mat.Mu
	sxx = 2*mu*e[0] + l*tr
	syy = 2*mu*e[1] + l*tr
	szz = 2*mu*e[2] + l*tr
	syz = 2 * mu * e[3]
	sxz = 2 * mu * e[4]
	sxy = 2 * mu * e[5]
	return
}

// fluxNormal evaluates F(q).n for the velocity-strain system at one point
// with unit normal n: the terms whose divergence the system evolves.
func fluxNormal(mat *Material, q []float64, n [3]float64, out []float64) {
	sxx, syy, szz, syz, sxz, sxy := stress(mat, q[3:])
	ir := 1 / mat.Rho
	// velocity rows: -(1/rho) sigma . n
	out[0] = -ir * (sxx*n[0] + sxy*n[1] + sxz*n[2])
	out[1] = -ir * (sxy*n[0] + syy*n[1] + syz*n[2])
	out[2] = -ir * (sxz*n[0] + syz*n[1] + szz*n[2])
	// strain rows: -sym(v (x) n)
	vx, vy, vz := q[0], q[1], q[2]
	out[3] = -vx * n[0]
	out[4] = -vy * n[1]
	out[5] = -vz * n[2]
	out[6] = -(vy*n[2] + vz*n[1]) / 2
	out[7] = -(vx*n[2] + vz*n[0]) / 2
	out[8] = -(vx*n[1] + vy*n[0]) / 2
}

// RHS computes dq/dt: non-conservative volume derivatives plus the
// dissipative Rusanov interface flux and the free-surface boundary flux.
//
// As in dGea, the ghost exchange is hidden behind element-local work: the
// schedule — split-phase exchange overlapped with the volume and interior
// face kernels (including the free-surface flux, which needs no remote
// data), optional worker-pool fan-out — lives in mangll's kernel driver;
// the solver supplies the hooks (seisKernel). NoOverlap selects the
// blocking baseline. Blocking, overlapped, and pooled execution are
// bitwise equal.
func (s *Solver) RHS(t float64, q, dq []float64) {
	m := s.Mesh
	np := m.Np
	tRHS := time.Now()
	copy(s.buf[:m.NumLocal*np*NC], q)

	s.kQ, s.kDQ = q, dq
	var wait time.Duration
	if s.Opts.NoOverlap {
		wait = m.ApplyBlocking(&s.kern, s.buf)
	} else {
		wait = m.Apply(&s.kern, s.buf)
	}
	s.hExch.ObserveDuration(wait)

	// Body-force source.
	if s.Source != nil {
		for i := 0; i < m.NumLocal*np; i++ {
			f := s.Source(t, [3]float64{m.X[0][i], m.X[1][i], m.X[2][i]})
			ir := 1 / s.mat[i].Rho
			dq[i*NC+0] += ir * f[0]
			dq[i*NC+1] += ir * f[1]
			dq[i*NC+2] += ir * f[2]
		}
	}
	s.hRHS.ObserveDuration(time.Since(tRHS))
}

// volumeTerm accumulates the non-conservative volume derivatives of the
// given local elements into dq.
func (s *Solver) volumeTerm(w *mangll.Work, elems []int32, q, dq []float64) {
	t0 := time.Now()
	m := s.Mesh
	np := m.Np
	sc := &s.ws[w.ID()]
	sig, der, field := sc.sig, sc.der, sc.field
	// dfdx[b][comp index in a 9-slot layout]
	grads := sc.grads
	for _, e := range elems {
		base := int(e) * np
		// stress at nodes
		for nn := 0; nn < np; nn++ {
			i := (base + nn) * NC
			mt := &s.mat[base+nn]
			sxx, syy, szz, syz, sxz, sxy := stress(mt, q[i+3:i+9])
			sig[nn] = [6]float64{sxx, syy, szz, syz, sxz, sxy}
		}
		// physical gradients of v (3 comps) and sigma (6 comps)
		for c := 0; c < NC; c++ {
			for nn := 0; nn < np; nn++ {
				if c < 3 {
					field[nn] = q[(base+nn)*NC+c]
				} else {
					field[nn] = sig[nn][c-3]
				}
			}
			for nn := 0; nn < np; nn++ {
				grads[nn*NC+c] = [3]float64{}
			}
			w.Gradient(field, der[0], der[1], der[2])
			for r, dr := range der {
				for nn := 0; nn < np; nn++ {
					gj := 1 / m.Jac[base+nn]
					g := &grads[nn*NC+c]
					g[0] += gj * m.Gi[r][0][base+nn] * dr[nn]
					g[1] += gj * m.Gi[r][1][base+nn] * dr[nn]
					g[2] += gj * m.Gi[r][2][base+nn] * dr[nn]
				}
			}
		}
		for nn := 0; nn < np; nn++ {
			i := (base + nn) * NC
			ir := 1 / s.mat[base+nn].Rho
			// dv_a = (1/rho) d sigma_ab / dx_b; sigma rows are comps 3..8.
			gs := grads[nn*NC:]
			dq[i+0] += ir * (gs[3][0] + gs[8][1] + gs[7][2])
			dq[i+1] += ir * (gs[8][0] + gs[4][1] + gs[6][2])
			dq[i+2] += ir * (gs[7][0] + gs[6][1] + gs[5][2])
			// dE = sym grad v.
			dq[i+3] += gs[0][0]
			dq[i+4] += gs[1][1]
			dq[i+5] += gs[2][2]
			dq[i+6] += (gs[1][2] + gs[2][1]) / 2
			dq[i+7] += (gs[0][2] + gs[2][0]) / 2
			dq[i+8] += (gs[0][1] + gs[1][0]) / 2
		}
	}
	s.Met.AddDuration("volume", time.Since(t0))
}

// surfaceTerm computes and stages the face fluxes of the given links
// (indices into Mesh.Links); liftTerm accumulates them afterwards in
// canonical link order. Free-surface boundary links are part of the
// interior set — they read only local data.
func (s *Solver) surfaceTerm(w *mangll.Work, links []int32) {
	t0 := time.Now()
	m := s.Mesh
	nf := m.Nf
	sc := &s.ws[w.ID()]
	mine, theirs := sc.mine, sc.theirs
	xs, area := sc.xs, sc.area
	fm, fp := sc.fm, sc.fp
	gAll, comp := sc.gAll, sc.comp
	for _, li := range links {
		l := &m.Links[li]
		if l.Kind == mangll.LinkBoundary {
			s.boundaryFlux(w, l, gAll, comp, xs, area)
			for c := 0; c < NC; c++ {
				w.StageFace(li, c, gAll[c])
			}
			continue
		}
		for c := 0; c < NC; c++ {
			w.MyFaceValues(l, NC, c, s.buf, comp)
			copy(mine[c*nf:(c+1)*nf], comp)
			w.FaceValues(l, NC, c, s.buf, comp)
			copy(theirs[c*nf:(c+1)*nf], comp)
		}
		s.fluxGeometry(w, l, xs, area)
		for fn := 0; fn < nf; fn++ {
			av := area[fn]
			sa := math.Sqrt(av[0]*av[0] + av[1]*av[1] + av[2]*av[2])
			if sa == 0 {
				continue
			}
			n := [3]float64{av[0] / sa, av[1] / sa, av[2] / sa}
			mt := s.MatFn(xs[fn])
			var qm, qp [NC]float64
			for c := 0; c < NC; c++ {
				qm[c] = mine[c*nf+fn]
				qp[c] = theirs[c*nf+fn]
			}
			fluxNormal(&mt, qm[:], n, fm)
			fluxNormal(&mt, qp[:], n, fp)
			alpha := mt.Vp()
			for c := 0; c < NC; c++ {
				// G = Fn(q-) - F* with Rusanov F*.
				gAll[c][fn] = sa * (0.5*(fm[c]-fp[c]) + 0.5*alpha*(qp[c]-qm[c]))
			}
		}
		for c := 0; c < NC; c++ {
			w.StageFace(li, c, gAll[c])
		}
	}
	s.Met.AddDuration("surface", time.Since(t0))
}

// liftTerm accumulates the staged face fluxes of every given link —
// interior, partition-boundary, and free-surface alike — into dq in link
// order, making the per-element accumulation order partition-independent.
func (s *Solver) liftTerm(w *mangll.Work, links []int32, dq []float64) {
	t0 := time.Now()
	m := s.Mesh
	for _, li := range links {
		l := &m.Links[li]
		for c := 0; c < NC; c++ {
			w.LiftFaceStrided(l, NC, c, w.StagedFace(li, c), dq)
		}
	}
	s.Met.AddDuration("surface", time.Since(t0))
}

// fluxGeometry evaluates the physical coordinates and outward area vectors
// at the link's flux points.
func (s *Solver) fluxGeometry(w *mangll.Work, l *mangll.FaceLink, xs, area [][3]float64) {
	m := s.Mesh
	e := int(l.Elem)
	nf := m.Nf
	sc := &s.ws[w.ID()]
	fx := sc.fx
	for a := 0; a < 3; a++ {
		for fn := 0; fn < nf; fn++ {
			vn := int(m.FaceIdx[l.Face][fn])
			fx[fn] = m.X[a][e*m.Np+vn]
		}
		if l.Kind == mangll.LinkToFineQuad {
			out := sc.fq
			w.InterpFaceToQuad(l, fx, out)
			for fn := 0; fn < nf; fn++ {
				xs[fn][a] = out[fn]
			}
		} else {
			for fn := 0; fn < nf; fn++ {
				xs[fn][a] = fx[fn]
			}
		}
		for fn := 0; fn < nf; fn++ {
			fx[fn] = m.FaceArea[l.Face][a][e*nf+fn]
		}
		if l.Kind == mangll.LinkToFineQuad {
			out := sc.fq
			w.InterpFaceToQuad(l, fx, out)
			for fn := 0; fn < nf; fn++ {
				area[fn][a] = out[fn]
			}
		} else {
			for fn := 0; fn < nf; fn++ {
				area[fn][a] = fx[fn]
			}
		}
	}
}

// boundaryFlux applies the free-surface condition sigma.n = 0 weakly:
// the traction is reflected, velocities pass through.
func (s *Solver) boundaryFlux(w *mangll.Work, l *mangll.FaceLink, gAll [][]float64, comp []float64, xs, area [][3]float64) {
	m := s.Mesh
	nf := m.Nf
	s.fluxGeometry(w, l, xs, area)
	mine := s.ws[w.ID()].mine
	for c := 0; c < NC; c++ {
		w.MyFaceValues(l, NC, c, s.buf, comp)
		copy(mine[c*nf:(c+1)*nf], comp)
	}
	for fn := 0; fn < nf; fn++ {
		av := area[fn]
		sa := math.Sqrt(av[0]*av[0] + av[1]*av[1] + av[2]*av[2])
		for c := 0; c < NC; c++ {
			gAll[c][fn] = 0
		}
		if sa == 0 {
			continue
		}
		n := [3]float64{av[0] / sa, av[1] / sa, av[2] / sa}
		mt := s.MatFn(xs[fn])
		var qm [NC]float64
		for c := 0; c < NC; c++ {
			qm[c] = mine[c*nf+fn]
		}
		// Traction of the interior state.
		sxx, syy, szz, syz, sxz, sxy := stress(&mt, qm[3:])
		tau := [3]float64{
			sxx*n[0] + sxy*n[1] + sxz*n[2],
			sxy*n[0] + syy*n[1] + syz*n[2],
			sxz*n[0] + syz*n[1] + szz*n[2],
		}
		ir := 1 / mt.Rho
		// G_v = Fn_v(q-) - F*_v with sigma+.n = -sigma-.n, v+ = v-:
		// F*_v = 0, so G_v = -(1/rho) tau.
		gAll[0][fn] = -sa * ir * tau[0]
		gAll[1][fn] = -sa * ir * tau[1]
		gAll[2][fn] = -sa * ir * tau[2]
	}
}

// Step advances one LSRK4(5) step.
func (s *Solver) Step(dt float64) {
	t0 := time.Now()
	s.rk.Step(s.Q, s.Time, dt, s.rhsFn)
	s.Time += dt
	s.hStep.ObserveDuration(time.Since(t0))
	s.live.Tick(s.Time)
}

// Energy returns the global elastic energy 1/2 rho |v|^2 + 1/2 sigma:E.
func (s *Solver) Energy() float64 {
	m := s.Mesh
	np1 := m.Np1
	var sum float64
	for e := 0; e < m.NumLocal; e++ {
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					idx := e*m.Np + n
					w := m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[idx]
					q := s.Q[idx*NC:]
					mt := &s.mat[idx]
					kin := 0.5 * mt.Rho * (q[0]*q[0] + q[1]*q[1] + q[2]*q[2])
					sxx, syy, szz, syz, sxz, sxy := stress(mt, q[3:9])
					el := 0.5 * (sxx*q[3] + syy*q[4] + szz*q[5] + 2*(syz*q[6]+sxz*q[7]+sxy*q[8]))
					sum += w * (kin + el)
					n++
				}
			}
		}
	}
	return mpi.AllreduceSumFloat(s.Comm, sum)
}

// SetPlaneWave initializes an elastic plane wave with wave vector kv,
// polarization d (unit), and speed taken from the material at each node:
// v = -omega d cos(k.x), E = sym(d k) cos(k.x). Exact for homogeneous
// media.
func (s *Solver) SetPlaneWave(kv, d [3]float64, omega float64) {
	m := s.Mesh
	for i := 0; i < m.NumLocal*m.Np; i++ {
		phase := kv[0]*m.X[0][i] + kv[1]*m.X[1][i] + kv[2]*m.X[2][i]
		cp := math.Cos(phase)
		q := s.Q[i*NC:]
		q[0] = -omega * d[0] * cp
		q[1] = -omega * d[1] * cp
		q[2] = -omega * d[2] * cp
		q[3] = d[0] * kv[0] * cp
		q[4] = d[1] * kv[1] * cp
		q[5] = d[2] * kv[2] * cp
		q[6] = (d[1]*kv[2] + d[2]*kv[1]) / 2 * cp
		q[7] = (d[0]*kv[2] + d[2]*kv[0]) / 2 * cp
		q[8] = (d[0]*kv[1] + d[1]*kv[0]) / 2 * cp
	}
	s.Time = 0
}

// PlaneWaveError returns the global L2 error of the velocity fields
// against the exact translated plane wave at the current time.
func (s *Solver) PlaneWaveError(kv, d [3]float64, omega float64) float64 {
	m := s.Mesh
	np1 := m.Np1
	var sum float64
	for e := 0; e < m.NumLocal; e++ {
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					idx := e*m.Np + n
					w := m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[idx]
					phase := kv[0]*m.X[0][idx] + kv[1]*m.X[1][idx] + kv[2]*m.X[2][idx] - omega*s.Time
					cp := math.Cos(phase)
					for a := 0; a < 3; a++ {
						dd := s.Q[idx*NC+a] - (-omega * d[a] * cp)
						sum += w * dd * dd
					}
					n++
				}
			}
		}
	}
	return math.Sqrt(mpi.AllreduceSumFloat(s.Comm, sum))
}

// FlopsPerStep returns the hand-counted floating-point operations of one
// full RK step on the current mesh (the accounting method the paper uses
// for its GPU table).
func (s *Solver) FlopsPerStep() float64 {
	m := s.Mesh
	np1 := float64(m.Np1)
	np := np1 * np1 * np1
	elems := float64(m.NumLocal)
	// Volume: 9 fields x 3 directions x 2(N+1) MAC per node, plus metric
	// application (9 comps x 3x3) and stress evaluation (~20/node).
	volume := elems * np * (9*3*2*np1 + 9*9*2 + 30)
	// Surface: 6 faces x (N+1)^2 points x ~200 ops.
	surface := elems * 6 * np1 * np1 * 200
	// RK update: 3 ops per dof per stage.
	update := elems * np * NC * 3
	local := (volume + surface + update) * 5
	return mpi.AllreduceSumFloat(s.Comm, local)
}
