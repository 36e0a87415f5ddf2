package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/advect"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rhea"
	"repro/internal/seismic"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtk"
)

// runJob executes one job to success or final failure. Advect and seismic
// jobs run through the lifecycle driver, which resumes a crashed job from
// its last checkpoint on a migrated rank count; mantle jobs run one world.
// On return the job directory holds its checkpoints, VTK frames, traces,
// flight-recorder dumps of crashed attempts, and a manifest. A panicking
// world is contained: the panic becomes this job's error, the server
// lives on.
func (s *Scheduler) runJob(j *Job) (err error) {
	spec := j.Spec
	if err := os.MkdirAll(filepath.Join(j.Dir, "ckpt"), 0o755); err != nil {
		return err
	}
	// Per-job telemetry bucket: an unlistened Server used purely as the
	// merge point for the job's world + solver registries, so the job's
	// manifest reflects this job's run and nothing else. The scheduler's
	// own listener keeps serving the global view.
	r := &jobRun{s: s, j: j, jtel: telemetry.NewServer()}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job %s attempt %d panicked: %v", j.ID, r.attempt, p)
		}
	}()
	var plan *mpi.FaultPlan
	if f := spec.Fault; f != nil {
		plan = lifecycle.Faults(mpi.FaultPlan{
			Seed: f.Seed, Drop: f.Drop, Dup: f.Dup, Delay: f.Delay, Reorder: f.Reorder,
			Stall: f.Stall, CrashRank: f.CrashRank, CrashStep: f.CrashStep,
		})
	}

	complete := true
	if spec.Type == TypeMantle {
		if j.canceled.Load() {
			return nil // nothing ran, nothing to report
		}
		opts := r.world(spec.Ranks)
		opts.Plan = plan
		err = lifecycle.Guard(spec.Ranks, opts, j.Dir, r.runMantle)
	} else {
		job := lifecycle.Job{
			Schedule: lifecycle.Schedule{
				Steps: spec.Steps, AdaptEvery: spec.AdaptEvery, CheckpointEvery: spec.CheckpointEvery,
				Base:   filepath.Join(j.Dir, "ckpt", spec.Type),
				Cancel: j.canceled.Load, OnStep: r.onStep,
			},
			Ranks: spec.Ranks, Open: r.open, Plan: plan, MaxRestarts: spec.MaxRestarts,
			World: r.world, FlightDir: j.Dir, OnRestart: r.onRestart,
		}
		var res lifecycle.Result
		res, err = job.Run()
		// Only a run that reached its last step has a final state to
		// fingerprint; a canceled one reports how far it got.
		complete = res.Steps == int64(spec.Steps)
		if err == nil {
			j.mu.Lock()
			j.fieldHash, j.hashValid = res.Hash, complete
			j.result = map[string]float64{"steps": float64(res.Steps)}
			j.mu.Unlock()
		}
	}
	if err != nil {
		return err
	}
	// The successful attempt's timeline is part of the streamed results
	// (open in Perfetto / chrome://tracing).
	if err := r.tr.WriteChromeTraceFile(filepath.Join(j.Dir, "trace.json")); err != nil {
		return err
	}
	manifest := telemetry.NewManifestConfig("serve/"+spec.Type, spec.ConfigMap())
	manifest.Transport = s.transportFor(spec)
	manifest.Workers = spec.Workers
	manifest.Finish(r.jtel)
	if err := manifest.WriteFile(filepath.Join(j.Dir, "manifest.json")); err != nil {
		return err
	}
	if complete {
		attempts, hist := j.Attempts()
		data := map[string]any{"attempts": attempts, "ranks_used": hist}
		if h, ok := j.FieldHash(); ok {
			data["field_hash"] = fmt.Sprintf("%#016x", h)
		}
		j.events.append("result", data)
	}
	return nil
}

// jobRun is a job's state across its attempts and the hooks it plugs into
// the lifecycle driver. attempt and tr describe the world in flight.
type jobRun struct {
	s       *Scheduler
	j       *Job
	jtel    *telemetry.Server
	attempt int
	tr      *trace.Tracer
}

// world starts an attempt: it records the world start (the rank count goes
// into the migration-visible history) and replaces the job's telemetry
// sources wholesale, so the manifest describes the attempt that produced
// the result, not a blend including half-finished crashed worlds.
func (r *jobRun) world(ranks int) mpi.RunOptions {
	r.attempt = r.j.beginAttempt(ranks)
	r.jtel.ResetSources()
	w := metrics.NewSharded(ranks)
	r.jtel.RegisterWorld(w)
	r.tr = trace.NewRing(ranks, r.s.cfg.TraceCap)
	return mpi.RunOptions{Tracer: r.tr, Metrics: w, Transport: r.s.transportFor(r.j.Spec), Workers: r.j.Spec.Workers}
}

// open builds or resumes one rank's solver for the job's type.
func (r *jobRun) open(c *mpi.Comm, from string) (lifecycle.Physics, int64, error) {
	if r.j.Spec.Type == TypeSeismic {
		sol, start, err := seismic.OpenEarth(c, seismicOpts(r.j.Spec), from)
		if err != nil {
			return nil, 0, err
		}
		r.jtel.Register("seismic", c.Rank(), sol.Met)
		return sol, start, nil
	}
	sol, start, err := advect.OpenShell(c, advectOpts(r.j.Spec), from)
	if err != nil {
		return nil, 0, err
	}
	r.jtel.Register("advect", c.Rank(), sol.Met)
	return sol, start, nil
}

// onStep streams a completed step: its checkpoint, an advect VTK frame,
// and its progress.
func (r *jobRun) onStep(c *mpi.Comm, p lifecycle.Physics, step int64, saved bool) error {
	spec := r.j.Spec
	if saved && c.Rank() == 0 {
		r.j.events.append("checkpoint", map[string]any{"step": step})
	}
	if sol, ok := p.(*advect.Solver); ok && spec.VTKEvery > 0 && step%int64(spec.VTKEvery) == 0 {
		if err := writeAdvectFrame(r.j, sol, step); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		r.j.events.append("progress", map[string]any{
			"step": step, "steps": spec.Steps, "sim_time": p.SimTime(),
			"attempt": r.attempt, "ranks": c.Size(),
		})
	}
	return nil
}

// onRestart reports a crash recovery in the event stream and metrics.
func (r *jobRun) onRestart(err error, from, to int) {
	r.j.events.append("crash", map[string]any{"attempt": r.attempt, "ranks": from, "error": err.Error()})
	r.j.events.append("migrate", map[string]any{"from_ranks": from, "to_ranks": to})
	r.s.met.AddCount("jobs_restarted", 1)
}

// transportFor resolves the fabric a job's worlds use.
func (s *Scheduler) transportFor(spec JobSpec) string {
	if spec.Transport != "" {
		return spec.Transport
	}
	return s.cfg.DefaultTransport
}

// advectOpts maps a job spec onto the shell-advection solver.
func advectOpts(spec JobSpec) advect.Options {
	o := advect.DefaultOptions()
	o.Degree = spec.Degree
	o.Level = int8(spec.Level)
	o.MaxLevel = int8(spec.MaxLevel)
	return o
}

// writeAdvectFrame streams one VTK frame of the concentration field (cell
// averages) into the job directory. Collective.
func writeAdvectFrame(j *Job, sol *advect.Solver, step int64) error {
	vals := make([]float64, sol.Mesh.NumLocal)
	for e := 0; e < sol.Mesh.NumLocal; e++ {
		var sum float64
		for n := 0; n < sol.Mesh.Np; n++ {
			sum += sol.C[e*sol.Mesh.Np+n]
		}
		vals[e] = sum / float64(sol.Mesh.Np)
	}
	path := filepath.Join(j.Dir, fmt.Sprintf("frame-%04d.vtk", step))
	if err := vtk.WriteGathered(path, sol.F, vtk.CellField{Name: "C", Values: vals}); err != nil {
		return err
	}
	if sol.Comm.Rank() == 0 {
		j.events.append("frame", map[string]any{"step": step, "file": filepath.Base(path)})
	}
	return nil
}

// seismicOpts maps a job spec onto the elastic-wave solver: the service
// defaults keep the wavelength-adapted earth mesh small (the frequency/
// PPW pair is fixed; the spec's MaxLevel caps refinement).
func seismicOpts(spec JobSpec) seismic.Options {
	o := seismic.DefaultOptions()
	o.Degree = spec.Degree
	o.MaxLevel = int8(spec.MaxLevel)
	o.MinLevel = int8(spec.Level)
	return o
}

// rheaOpts maps a job spec onto the mantle-convection model, shrunk to
// service scale.
func rheaOpts(spec JobSpec) rhea.Options {
	o := rhea.DefaultOptions()
	o.Level = int8(spec.Level)
	o.MaxLevel = int8(spec.MaxLevel)
	o.DataAdapt = 1
	o.SolAdapt = spec.SolAdapt
	o.Picard = spec.Picard
	return o
}

// runMantle is one rank of a mantle job's nonlinear Stokes solve. Mantle
// jobs have no step boundaries, so no checkpoints, cancellation points,
// or crash injection — the Report is the whole result.
func (r *jobRun) runMantle(c *mpi.Comm) error {
	m := rhea.New(c, rheaOpts(r.j.Spec))
	r.jtel.Register("mantle", c.Rank(), m.Met)
	rep := m.Run()
	if c.Rank() != 0 {
		return nil
	}
	j := r.j
	j.mu.Lock()
	j.result = map[string]float64{
		"solve_seconds":  rep.SolveSec,
		"vcycle_seconds": rep.VcycleSec,
		"amr_seconds":    rep.AMRSec,
		"picard_iters":   float64(rep.PicardIters),
		"minres_iters":   float64(rep.MinresIters),
		"elements":       float64(rep.Elements),
		"unknowns":       float64(rep.Unknowns),
	}
	j.mu.Unlock()
	return nil
}
