package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/advect"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// advect-amr: the Figure 5 set-up. Dynamic-AMR dG advection on the 24-tree
// shell, stepped to a fixed simulated time with an adapt cycle every few
// steps, so the dG kernels (mangll.Mesh.Apply), the ghost exchange and the
// adapt cycle all do real work.

type advectCase struct {
	ranks      int
	opts       advect.Options
	simTime    float64 // every result advances the solution to this time
	adaptEvery int
	// Output tolerances for one solve: the L2 error against the exact
	// (rotated initial) solution and the relative mass drift. At the
	// default size they measure about 1.5e-4 and 2e-9.
	maxErr, maxDrift float64
}

// lsrkStages is the number of RHS evaluations per step of mangll.LSRK45.
const lsrkStages = 5

// advectSetup sizes the solve. The seed picks the sense of the solid-body
// rotation: the four fronts of §III.B and the shell are symmetric under a
// reflection that reverses it, so both senses refine the same number of
// elements at the same cost, while the forest, the partition and the field
// differ.
func advectSetup(cfg config) advectCase {
	o := advect.DefaultOptions()
	o.Degree, o.Level, o.MaxLevel = 3, 2, 3
	if rand.New(rand.NewSource(cfg.seed)).Intn(2) == 1 {
		o.Omega = -o.Omega
	}
	c := advectCase{ranks: 2, opts: o, simTime: 0.1, adaptEvery: 4, maxErr: 1e-3, maxDrift: 1e-6}
	if cfg.small {
		c.opts.Degree, c.opts.Level, c.opts.MaxLevel = 2, 1, 2
		c.simTime, c.maxErr, c.maxDrift = 0.05, 2e-2, 1e-5
	}
	return c
}

// advectSolve is one result: its set-up and solve times and its outputs.
type advectSolve struct {
	setup, solve   cost
	err, drift     float64
	hash           uint64
	elements       int64
	steps, changed int
	balanceRounds  int // rounds of the last Balance

	// Filled on traced solves only, one entry per rank.
	rhs, exch, newmesh []float64
	elemRHS, shipped   []int64
	wins               []window // the solve's program events
	comm               commCount
	bytesPerElemRHS    float64
}

// solveAdvect builds the solver in a fresh world and advances it to the
// fixed simulated time. own (nil when untraced) receives the benchmark's
// spans around Step and Adapt, one lane per rank.
func solveAdvect(ac advectCase, opts mpi.RunOptions, own *trace.Tracer) advectSolve {
	r := advectSolve{
		rhs: make([]float64, ac.ranks), exch: make([]float64, ac.ranks), newmesh: make([]float64, ac.ranks),
		elemRHS: make([]int64, ac.ranks), shipped: make([]int64, ac.ranks), wins: make([]window, ac.ranks),
	}
	comm := make([][2]commCount, ac.ranks)
	mpi.RunOpt(ac.ranks, opts, func(c *mpi.Comm) {
		rank := c.Rank()
		lane := own.Rank(rank)
		m0 := startSettled(c)
		s := advect.NewShell(c, ac.opts)
		c.Barrier()
		setup := m0.stop()
		mass0 := s.Mass()
		snap := func(name string) float64 {
			return time.Duration(s.Met.Histogram(name, metrics.UnitDuration).Sum()).Seconds()
		}
		rhs0, exch0, shipped0 := snap("rhs"), snap("exchange"), s.Met.Count("elements_shipped")
		m1 := startSettled(c)
		comm[rank][0] = readComm(c)
		from := eventCount(opts.Tracer, rank)
		lane.Begin("advect.solve")
		dt := s.DT()
		steps, changed := 0, 0
		var elemRHS int64
		for s.Time < ac.simTime*(1-1e-12) {
			h := math.Min(dt, ac.simTime-s.Time)
			elemRHS += int64(lsrkStages * s.Mesh.NumLocal)
			lane.Begin("advect.step")
			s.Step(h)
			lane.End()
			steps++
			if steps%ac.adaptEvery == 0 {
				lane.Begin("advect.adapt")
				if s.Adapt() {
					changed++
					dt = s.DT()
				}
				lane.End()
			}
		}
		comm[rank][1] = readComm(c)
		r.wins[rank] = window{from, eventCount(opts.Tracer, rank)}
		c.Barrier()
		lane.End()
		solve := m1.stop()
		e, mass1, hash := s.ErrorVsExact(), s.Mass(), s.FieldHash()
		if own != nil {
			r.rhs[rank], r.exch[rank] = snap("rhs")-rhs0, snap("exchange")-exch0
			r.elemRHS[rank], r.shipped[rank] = elemRHS, s.Met.Count("elements_shipped")-shipped0
			// Mesh build cost on the final forest, timed from outside,
			// after the solve's window closed.
			g := s.F.Ghost()
			c.Barrier()
			tm := time.Now()
			lane.Begin("mangll.newmesh")
			m := mangll.NewMesh(s.F, g, s.LGL)
			lane.End()
			r.newmesh[rank] = time.Since(tm).Seconds()
			if rank == 0 {
				r.bytesPerElemRHS = bytesPerElemRHS(m)
			}
		}
		if rank == 0 {
			r.setup, r.solve = setup, solve
			r.err, r.drift, r.hash = e, math.Abs(mass1-mass0)/mass0, hash
			r.elements, r.steps, r.changed = s.F.NumGlobal(), steps, changed
			r.balanceRounds = s.F.BalanceRounds
		}
	})
	for _, cc := range comm {
		r.comm.add(cc[0], cc[1])
	}
	return r
}

// advectSetups is the least number of set-ups a run times: a run holds
// only a few solves, and the median of their set-ups alone spread by 17%
// from run to run.
const advectSetups = 12

// setupAdvect times one set-up, NewShell with its initial adapt loop, in a
// fresh world, as solveAdvect does before its solve.
func setupAdvect(ac advectCase) cost {
	var c cost
	mpi.RunOpt(ac.ranks, runOpts(nil, nil), func(cm *mpi.Comm) {
		m := startSettled(cm)
		advect.NewShell(cm, ac.opts)
		cm.Barrier()
		if cm.Rank() == 0 {
			c = m.stop()
		}
	})
	return c
}

// bytesPerElemRHS is a computed (not measured) compulsory-traffic model of
// one element's share of one RHS evaluation plus its RK stage update, in
// bytes of float64 data: per volume node the ghost-buffer copy (2), the
// volume term reading C, three contravariant velocities and the Jacobian
// and updating dC (7), and the LSRK45 stage (zeroing dC, updating the
// residual register and the solution: 6); per flux point of each of the
// element's face links the normal velocity, both traces, the staged flux
// written and read back, and the lifted update of dC (7).
func bytesPerElemRHS(m *mangll.Mesh) float64 {
	if m.NumLocal == 0 {
		return 0
	}
	linksPerElem := float64(len(m.Links)) / float64(m.NumLocal)
	return 8 * (15*float64(m.Np) + 7*float64(m.Nf)*linksPerElem)
}

// check applies the output checks to one solve.
func (r advectSolve) check(o *outcome, ac advectCase, wantHash uint64) {
	bad := false
	if !(r.err <= ac.maxErr) {
		o.problem("advect: L2 error %.3g exceeds %.0e", r.err, ac.maxErr)
		bad = true
	}
	if !(r.drift <= ac.maxDrift) {
		o.problem("advect: mass drift %.3g exceeds %.0e", r.drift, ac.maxDrift)
		bad = true
	}
	if r.hash != wantHash {
		o.problem("advect: field hash %#x differs from the first solve's %#x", r.hash, wantHash)
		bad = true
	}
	o.attempted++
	if bad {
		o.failed++
	}
}

func runAdvect(cfg config) outcome {
	ac := advectSetup(cfg)
	var o outcome
	var setups, solves []cost
	var first advectSolve
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds || len(solves) < 2 {
		r := solveAdvect(ac, runOpts(nil, nil), nil)
		if len(solves) == 0 {
			first = r
		}
		r.check(&o, ac, first.hash)
		setups = append(setups, r.setup)
		solves = append(solves, r.solve)
	}
	o.set("heap_peak_mb", livePeakMB(func() {
		solveAdvect(ac, runOpts(nil, nil), nil).check(&o, ac, first.hash)
	}))
	for len(setups) < advectSetups {
		setups = append(setups, setupAdvect(ac))
	}
	o.setResults(setups, solves)
	o.note("advect-amr: %d elements, %d steps to t=%g, %d adapts changed the mesh, L2 error %.4g, mass drift %.3g, field hash %#x",
		first.elements, first.steps, ac.simTime, first.changed, first.err, first.drift, first.hash)
	return o
}

// tracedAdvect solves untraced for half the run (the wall.* figures),
// then traced for the other half, each traced solve with a fresh tracer
// and registry. Per-solve layer metrics are medians over the traced
// solves; step quantiles pool every traced step.
func tracedAdvect(cfg config) outcome {
	ac := advectSetup(cfg)
	var o outcome
	o.zeroLayer()
	half := cfg.seconds / 2
	var setups, plain, traced []cost
	var hash uint64
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < half; {
		r := solveAdvect(ac, runOpts(nil, nil), nil)
		if len(plain) == 0 {
			hash = r.hash
		}
		r.check(&o, ac, hash)
		setups, plain = append(setups, r.setup), append(plain, r.solve)
	}
	own := trace.New(ac.ranks)
	var tr *trace.Tracer
	per := map[string][]float64{}
	for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < half; {
		tr = trace.New(ac.ranks)
		reg := metrics.NewSharded(ac.ranks)
		r := solveAdvect(ac, runOpts(tr, reg), own)
		r.check(&o, ac, hash)
		traced = append(traced, r.solve)
		var one outcome
		one.setAdvectSolve(r, tr)
		for k, v := range one.metrics {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		o.set(k, median(vs))
	}
	o.setWall(setups, plain)
	o.set("trace.overhead_pct", overheadPct(field(plain, wallOf), field(traced, wallOf)))
	steps := spanDurations(own, "advect.step")
	o.set("mangll.rk_step_s.p50", median(steps))
	o.set("mangll.rk_step_s.p90", quantile(steps, 0.9))
	o.note("advect-amr traced: %d untraced and %d traced solves, %d traced steps", len(plain), len(traced), len(steps))
	o.setProbes(cfg)
	o.set("mangll.bw_frac", o.metrics["mangll.elem_rhs_per_s"]*o.metrics["mangll.bytes_per_elem_rhs"]/(o.metrics["host.triad_gbps"]*1e9))
	writeTraces(cfg, "advect-amr", own, tr, &o)
	return o
}

// setAdvectSolve fills the per-layer metrics of one traced solve.
func (o *outcome) setAdvectSolve(r advectSolve, tr *trace.Tracer) {
	p := float64(len(r.rhs))
	o.setMPI(r.comm, 1)
	o.set("mangll.rhs_s", sum(r.rhs)/p)
	o.set("mangll.exchange_wait_s", sum(r.exch)/p)
	o.set("mangll.newmesh_s", maxOf(r.newmesh))
	var elemRHS, shipped int64
	for i := range r.elemRHS {
		elemRHS += r.elemRHS[i]
		shipped += r.shipped[i]
	}
	o.set("mangll.elem_rhs_per_s", float64(elemRHS)/(sum(r.rhs)/p))
	o.set("mangll.bytes_per_elem_rhs", r.bytesPerElemRHS)
	var adapt, step float64
	var adapts []float64
	for rank := 0; rank < tr.NumRanks(); rank++ {
		for _, ev := range r.wins[rank].events(tr, rank) {
			switch {
			case ev.Dur < 0:
			case ev.Name == "adapt":
				adapt += ev.Dur.Seconds()
				if rank == 0 {
					adapts = append(adapts, ev.Dur.Seconds())
				}
			case ev.Name == "solve":
				step += ev.Dur.Seconds()
			}
		}
	}
	o.set("advect.adapt_s.p50", median(adapts))
	if adapt+step > 0 {
		o.set("advect.amr_share", adapt/(adapt+step))
	}
	o.set("advect.elements", float64(r.elements))
	o.set("advect.adapts_changed", float64(r.changed))
	o.set("advect.elements_shipped", float64(shipped))
	o.set("advect.unattributed_share", advectUnattributed(tr, r.wins, r.rhs))
	o.set("advect.l2_err", r.err)
	o.set("advect.mass_drift", r.drift)
	o.setCore(aggregateWindows(tr, r.wins), 1, r.elements, r.balanceRounds)
}

// advectUnattributed is the share of the traced solve's Step and Adapt
// time (the program's spans in wins) that no finer measurement covers:
// Step time outside the solver's rhs histogram, and Adapt time outside the
// core phase spans (refine, coarsen, balance, partition, ghost) nested
// directly in it. The rest of Adapt is marking, field transfer and the
// mesh rebuild.
func advectUnattributed(tr *trace.Tracer, wins []window, rhs []float64) float64 {
	var stepT, adaptT, covered float64
	for r := 0; r < tr.NumRanks(); r++ {
		evs := wins[r].events(tr, r)
		for i, ev := range evs {
			switch {
			case ev.Name == "solve" && ev.Dur >= 0:
				stepT += ev.Dur.Seconds()
			case ev.Name == "adapt" && ev.Dur >= 0:
				adaptT += ev.Dur.Seconds()
				end := ev.Start + ev.Dur
				for _, ch := range evs[i+1:] {
					if ch.Start >= end {
						break
					}
					if ch.Depth == ev.Depth+1 && ch.Dur >= 0 && corePhase[ch.Name] {
						covered += ch.Dur.Seconds()
					}
				}
			}
		}
		if r < len(rhs) {
			covered += rhs[r]
		}
	}
	if stepT+adaptT == 0 {
		return 0
	}
	return (stepT + adaptT - covered) / (stepT + adaptT)
}

var corePhase = map[string]bool{"refine": true, "coarsen": true, "balance": true, "partition": true, "ghost": true}
