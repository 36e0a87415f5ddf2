// Package lifecycle is the one run → checkpoint → crash → resume driver of
// the CLI robust modes and the simulation service. As in the paper's dGea
// and advection runs, the forest owns state and checkpoints while the
// physics plugs in: a solver implements Physics once, and the driver owns
// the step loop, the attempt (a world under a flight recorder) and the
// restart policy.
package lifecycle

import (
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Physics is a time-stepping solver on one rank. Every method is
// collective. Adapt reports whether the mesh changed (so DT must be
// recomputed); SaveCheckpoint writes the state at a step to a checkpoint
// base; FieldHash is the bitwise fingerprint of the global state.
type Physics interface {
	DT() float64
	Step(dt float64)
	Adapt() bool
	SaveCheckpoint(base string, step int64) error
	FieldHash() uint64
	SimTime() float64
}

// Open builds one rank's solver: fresh when from is "", else restored from
// the checkpoint base from. It returns the step the run continues after.
type Open func(c *mpi.Comm, from string) (Physics, int64, error)

// Schedule is the per-step cadence of a run.
type Schedule struct {
	Steps      int // number of the last step
	AdaptEvery int // adapt after every N-th step; 0 never
	// CheckpointEvery writes a checkpoint to Base after every M-th step,
	// after its adaptation, so the files always hold a consistent
	// (forest, fields, time) triple; 0 or an empty Base never writes one.
	CheckpointEvery int
	Base            string
	// Cancel, when set, is polled on rank 0 before every step and the
	// verdict broadcast, so the world stops together at one boundary.
	Cancel func() bool
	// OnStep, when set, runs on every rank after each completed step;
	// saved reports whether the step wrote a checkpoint.
	OnStep func(c *mpi.Comm, p Physics, step int64, saved bool) error
}

// Run advances p from step start+1 through s.Steps and returns the last
// completed step. Each step boundary is an injected-crash point.
func (s Schedule) Run(c *mpi.Comm, p Physics, start int64) (int64, error) {
	dt := p.DT()
	for step := start + 1; step <= int64(s.Steps); step++ {
		if s.Cancel != nil && mpi.Bcast(c, 0, c.Rank() == 0 && s.Cancel()) {
			return step - 1, nil
		}
		c.CrashPoint(int(step))
		p.Step(dt)
		if s.AdaptEvery > 0 && step%int64(s.AdaptEvery) == 0 && p.Adapt() {
			dt = p.DT()
		}
		saved := s.CheckpointEvery > 0 && s.Base != "" && step%int64(s.CheckpointEvery) == 0
		if saved {
			if err := p.SaveCheckpoint(s.Base, step); err != nil {
				return step, err
			}
		}
		if s.OnStep != nil {
			if err := s.OnStep(c, p, step, saved); err != nil {
				return step, err
			}
		}
	}
	return int64(s.Steps), nil
}

// Job is one checkpointed run, driven to completion across injected rank
// crashes.
type Job struct {
	Schedule
	Ranks       int            // world size of the first attempt
	Open        Open           // builds or resumes each rank's solver
	Plan        *mpi.FaultPlan // fault schedule; nil runs fault-free
	Resume      bool           // first attempt resumes from Base if it can
	MaxRestarts int
	// World returns the run options (tracer, metrics, transport, workers)
	// of an attempt on the given rank count, whose Plan the driver sets;
	// nil runs on the defaults.
	World func(ranks int) mpi.RunOptions
	// FlightDir receives the flight recorder's dump of a failed attempt.
	FlightDir string
	// OnRestart, when set, hears of each recovered crash before the next
	// attempt starts on `to` ranks.
	OnRestart func(err error, from, to int)
}

// Result is the outcome of a job's final attempt.
type Result struct {
	Steps  int64          // last completed step (< Job.Steps if canceled)
	Hash   uint64         // final FieldHash, set only when the run completed
	Ranks  int            // world size
	Faults mpi.FaultStats // rank 0's fault-injection counters
}

// Run executes the job. An injected crash is recovered, up to MaxRestarts
// times and only when there is a checkpoint to resume from, by disarming
// the crash (a restarted process does not crash again; the rest of the
// plan stays active) and resuming on a migrated rank count: the
// rank-count-independent checkpoint format makes the migration free. Any
// other error, or a crash with nothing to resume from, is returned.
func (j *Job) Run() (Result, error) {
	plan, ranks, resume := j.Plan, j.Ranks, j.Resume
	for restarts := 0; ; restarts++ {
		res, err := j.attempt(ranks, plan, resume)
		if !mpi.IsInjectedCrash(err) || restarts >= j.MaxRestarts ||
			j.CheckpointEvery <= 0 || !core.CheckpointExists(j.Base) {
			return res, err
		}
		p := *plan
		p.CrashRank = -1
		// Always a different world size (the restart is a live migration):
		// shrink when possible, since the crash may have been resource
		// pressure; grow a 1-rank world.
		next := ranks - 1
		if ranks == 1 {
			next = 2
		}
		if j.OnRestart != nil {
			j.OnRestart(err, ranks, next)
		}
		plan, ranks, resume = &p, next, true
	}
}

func (j *Job) attempt(ranks int, plan *mpi.FaultPlan, resume bool) (Result, error) {
	res := Result{Ranks: ranks}
	var opts mpi.RunOptions
	if j.World != nil {
		opts = j.World(ranks)
	}
	opts.Plan = plan
	from := ""
	if resume && core.CheckpointExists(j.Base) {
		from = j.Base
	}
	err := Guard(ranks, opts, j.FlightDir, func(c *mpi.Comm) error {
		p, start, err := j.Open(c, from)
		if err != nil {
			return err
		}
		last, err := j.Schedule.Run(c, p, start)
		if err != nil {
			return err
		}
		var h uint64
		if last == int64(j.Steps) {
			h = p.FieldHash()
		}
		if c.Rank() == 0 {
			res.Steps, res.Hash, res.Faults = last, h, c.FaultStats()
		}
		return nil
	})
	return res, err
}

// Guard runs fn on a world of the given size, with a flight recorder that
// dumps the world's tracer into dir if the world fails or panics.
func Guard(ranks int, opts mpi.RunOptions, dir string, fn func(c *mpi.Comm) error) error {
	fr := telemetry.NewFlightRecorder(opts.Tracer, dir)
	return fr.Guard(func() error { return mpi.RunErrOpt(ranks, opts, fn) })
}

// Faults returns the fault schedule for the given knobs, with delays of
// up to 200 µs and retries after 100 µs, or nil when every knob is off:
// nil keeps the runtime on its zero-overhead path.
func Faults(p mpi.FaultPlan) *mpi.FaultPlan {
	if p.Drop == 0 && p.Dup == 0 && p.Delay == 0 && p.Reorder == 0 &&
		p.Stall == 0 && p.CrashRank < 0 {
		return nil
	}
	p.MaxDelay, p.RetryTimeout = 200*time.Microsecond, 100*time.Microsecond
	return &p
}
