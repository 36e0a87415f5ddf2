package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rhea"
	"repro/internal/trace"
)

// mantle-stokes: the Figure 7 set-up, rhea.New plus Model.Run at P=2,
// the only workload on the Stokes layer (MINRES, AMG V-cycles, FEM
// matvecs) and on rhea's AMR. Listed in BENCHMARK.json at a size whose
// solves meet MinresTol: base level 0, data-adaptive refinement to level
// 1. mantle-stokes-default runs rhea.DefaultOptions() unchanged (level 1
// to 3), where every solve stops at the MINRES iteration cap, so that the
// defect can be measured by name; it is not listed because every one of
// its runs fails the residual check.

func mantleWorkload(level, maxLevel int8) workload {
	return workload{
		run:    func(cfg config) outcome { return runMantle(cfg, level, maxLevel) },
		traced: func(cfg config) outcome { return tracedMantle(cfg, level, maxLevel) },
	}
}

// mantleHeapSeconds is how long the heap pass runs models (at least one).
const mantleHeapSeconds = 3 * time.Second

type mantleCase struct {
	ranks int
	opts  rhea.Options
}

// mantleSetup draws the Rayleigh number within 2% of the default from the
// seed; every other option but the levels is rhea.DefaultOptions().
func mantleSetup(cfg config, level, maxLevel int8) mantleCase {
	o := rhea.DefaultOptions()
	o.Level, o.MaxLevel = level, maxLevel
	o.Rayleigh *= 1 + 0.02*(2*rand.New(rand.NewSource(cfg.seed)).Float64()-1)
	if cfg.small {
		o.Level, o.MaxLevel, o.DataAdapt, o.Picard = 0, 1, 1, 1
	}
	return mantleCase{ranks: 2, opts: o}
}

type mantleRun struct {
	setup, run cost
	relres     float64
	rep        rhea.Report
	rounds     int // rounds of the last Balance
	// Read by traced runs: rank-mean totals of the model's registry, and
	// the model's program events (New and Run) and message counts, which
	// only a traced world records.
	vcycle, amgSetup, matvec, amr float64
	wins                          []window
	comm                          commCount
}

func runMantleOnce(mc mantleCase, opts mpi.RunOptions, own *trace.Tracer) mantleRun {
	r := mantleRun{wins: make([]window, mc.ranks)}
	tot := map[string][]float64{}
	names := []string{"vcycle", "amg_setup", "matvec", "amr"}
	for _, n := range names {
		tot[n] = make([]float64, mc.ranks)
	}
	comm := make([][2]commCount, mc.ranks)
	mpi.RunOpt(mc.ranks, opts, func(c *mpi.Comm) {
		rank := c.Rank()
		lane := own.Rank(rank)
		m0 := startSettled(c)
		comm[rank][0] = readComm(c)
		from := eventCount(opts.Tracer, rank)
		lane.Begin("rhea.New")
		m := rhea.New(c, mc.opts)
		lane.End()
		c.Barrier()
		setup := m0.stop()
		m1 := startSettled(c)
		lane.Begin("rhea.Run")
		rep := m.Run()
		lane.End()
		comm[rank][1] = readComm(c)
		r.wins[rank] = window{from, eventCount(opts.Tracer, rank)}
		c.Barrier()
		run := m1.stop()
		rel := mantleRelres(m)
		for _, n := range names {
			tot[n][rank] = m.Met.Total(n).Seconds()
		}
		if rank == 0 {
			r.setup, r.run, r.relres, r.rep, r.rounds = setup, run, rel, rep, m.F.BalanceRounds
		}
	})
	p := float64(mc.ranks)
	r.vcycle, r.amgSetup, r.matvec, r.amr = sum(tot["vcycle"])/p, sum(tot["amg_setup"])/p, sum(tot["matvec"])/p, sum(tot["amr"])/p
	for _, cc := range comm {
		r.comm.add(cc[0], cc[1])
	}
	return r
}

// mantleRelres recomputes the relative residual ||b - K x|| / ||b|| of the
// final Stokes solution with the public Operator methods: the right-hand
// side is the buoyancy force rhea.Model.Run applies, with homogeneous
// velocity boundary values. Collective.
func mantleRelres(m *rhea.Model) float64 {
	op := m.Op
	b := op.BuildRHS(func(p [3]float64) [3]float64 {
		r := math.Sqrt(p[0]*p[0]+p[1]*p[1]+p[2]*p[2]) + 1e-300
		f := m.Opts.Rayleigh * m.Temperature(p)
		return [3]float64{f * p[0] / r, f * p[1] / r, f * p[2] / r}
	})
	kx := make([]float64, len(b))
	op.Apply(m.X, kx)
	res := make([]float64, len(b))
	for i := range b {
		res[i] = b[i] - kx[i]
	}
	return math.Sqrt(op.Dot(res, res) / op.Dot(b, b))
}

// check counts a run whose recomputed residual misses MinresTol as failed.
func (r mantleRun) check(o *outcome, tol float64) {
	o.attempted++
	if !(r.relres <= tol) {
		o.failed++
		o.problem("mantle: relative residual %.3g misses MinresTol %.0e (%d MINRES iterations over %d solves)",
			r.relres, tol, r.rep.MinresIters, r.rep.PicardIters)
	}
}

func runMantle(cfg config, level, maxLevel int8) outcome {
	mc := mantleSetup(cfg, level, maxLevel)
	var o outcome
	var setups, runs []cost
	var first mantleRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start).Seconds() < cfg.seconds {
		r := runMantleOnce(mc, runOpts(nil, nil), nil)
		r.check(&o, mc.opts.MinresTol)
		if len(runs) == 0 {
			first = r
		}
		setups = append(setups, r.setup)
		runs = append(runs, r.run)
	}
	// A small model holds a few MB for a fraction of a second, and where
	// the collections fall within it moves its peak, so the heap pass
	// reports the median peak of the models of mantleHeapSeconds.
	var peaks []float64
	for start := time.Now(); len(peaks) == 0 || time.Since(start) < mantleHeapSeconds; {
		peaks = append(peaks, livePeakMB(func() {
			runMantleOnce(mc, runOpts(nil, nil), nil).check(&o, mc.opts.MinresTol)
		}))
	}
	o.set("heap_peak_mb", median(peaks))
	o.setResults(setups, runs)
	o.note("mantle-stokes: levels %d to %d, %d elements, %d unknowns, %d MINRES iterations over %d solves, relative residual %.3g",
		mc.opts.Level, mc.opts.MaxLevel, first.rep.Elements, first.rep.Unknowns, first.rep.MinresIters, first.rep.PicardIters, first.relres)
	return o
}

// tracedMantle runs models untraced for half the run (the wall.* figures),
// then traced for the other half, each with a fresh tracer and registry.
// The layer metrics cover one model, rhea.New and Model.Run, and are
// medians over the traced models.
func tracedMantle(cfg config, level, maxLevel int8) outcome {
	mc := mantleSetup(cfg, level, maxLevel)
	var o outcome
	o.zeroLayer()
	half := cfg.seconds / 2
	var setups, plain, traced []cost
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < half; {
		r := runMantleOnce(mc, runOpts(nil, nil), nil)
		r.check(&o, mc.opts.MinresTol)
		setups, plain = append(setups, r.setup), append(plain, r.run)
	}
	own := trace.New(mc.ranks)
	var tr *trace.Tracer
	per := map[string][]float64{}
	for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < half; {
		tr = trace.New(mc.ranks)
		r := runMantleOnce(mc, runOpts(tr, metrics.NewSharded(mc.ranks)), own)
		r.check(&o, mc.opts.MinresTol)
		traced = append(traced, r.run)
		var one outcome
		one.setMPI(r.comm, 1)
		one.setCore(aggregateWindows(tr, r.wins), 1, r.rep.Elements, r.rounds)
		if r.rep.PicardIters > 0 {
			one.set("stokes.minres_iters_per_solve", float64(r.rep.MinresIters)/float64(r.rep.PicardIters))
		}
		one.set("stokes.vcycle_s", r.vcycle)
		one.set("stokes.amg_setup_s", r.amgSetup)
		one.set("stokes.matvec_s", r.matvec)
		one.set("rhea.amr_s", r.amr)
		one.set("rhea.elements", float64(r.rep.Elements))
		one.set("rhea.unknowns", float64(r.rep.Unknowns))
		one.set("mantle.relres", r.relres)
		for k, v := range one.metrics {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		o.set(k, median(vs))
	}
	o.setWall(setups, plain)
	o.set("trace.overhead_pct", overheadPct(field(plain, wallOf), field(traced, wallOf)))
	o.note("mantle-stokes traced: %d untraced and %d traced models", len(plain), len(traced))
	o.setProbes(cfg)
	writeTraces(cfg, "mantle-stokes", own, tr, &o)
	return o
}
