package lifecycle

import (
	"flag"
	"fmt"
	"path/filepath"

	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// CLI is the robust mode of cmd/advect and cmd/seismic: -checkpoint runs
// the driver with optional deterministic fault injection, showing that
// the solver survives a transport gone bad and an injected rank crash and
// still reproduces the fault-free run's field hash bitwise.
//
//	go run ./cmd/advect -checkpoint /tmp/adv -checkpoint-every 4 \
//	    -fault-drop 0.2 -fault-dup 0.2 -fault-reorder 0.2 \
//	    -crash-rank 1 -crash-step 9
type CLI struct {
	base   string
	every  int
	resume bool
	knobs  mpi.FaultPlan
}

// NewCLI registers the robust-mode flags on fs. Call before fs.Parse.
func NewCLI(fs *flag.FlagSet) *CLI {
	r := &CLI{}
	fs.StringVar(&r.base, "checkpoint", "", "checkpoint base path; enables the robust checkpoint/restart driver")
	fs.IntVar(&r.every, "checkpoint-every", 4, "steps between checkpoints in robust mode")
	fs.BoolVar(&r.resume, "resume", false, "resume from -checkpoint if one exists")
	fs.Int64Var(&r.knobs.Seed, "fault-seed", 1, "fault schedule seed")
	fs.Float64Var(&r.knobs.Drop, "fault-drop", 0, "P(a delivery attempt is transiently dropped)")
	fs.Float64Var(&r.knobs.Dup, "fault-dup", 0, "P(a message is delivered twice)")
	fs.Float64Var(&r.knobs.Delay, "fault-delay", 0, "P(a message gets extra latency)")
	fs.Float64Var(&r.knobs.Reorder, "fault-reorder", 0, "P(a message is held back so later traffic overtakes it)")
	fs.Float64Var(&r.knobs.Stall, "fault-stall", 0, "P(a send/recv call stalls its rank)")
	fs.IntVar(&r.knobs.CrashRank, "crash-rank", -1, "rank to crash in robust mode (-1 disables)")
	fs.IntVar(&r.knobs.CrashStep, "crash-step", 0, "step at which -crash-rank crashes")
	return r
}

// Enabled reports whether -checkpoint selected robust mode.
func (r *CLI) Enabled() bool { return r.base != "" }

// Run executes the robust run on p ranks and prints its outcome. Every
// attempt runs under a ring tracer guarded by the flight recorder, so a
// crash leaves the last spans of every rank next to the checkpoint.
func (r *CLI) Run(p, steps, adaptEvery int, tel *telemetry.Driver, open Open) (Result, error) {
	job := Job{
		Schedule: Schedule{Steps: steps, AdaptEvery: adaptEvery, CheckpointEvery: r.every, Base: r.base},
		Ranks:    p,
		Open: func(c *mpi.Comm, from string) (Physics, int64, error) {
			s, start, err := open(c, from)
			if err == nil && from != "" && c.Rank() == 0 {
				fmt.Printf("resumed from %s at step %d (t=%.6f)\n", from, start, s.SimTime())
			}
			return s, start, err
		},
		Plan:   Faults(r.knobs),
		Resume: r.resume,
		// The restart runs with the crash disarmed: one is all it takes.
		MaxRestarts: 1,
		World: func(ranks int) mpi.RunOptions {
			world, tr := tel.BeginRun(ranks, trace.NewRing(ranks, 4096))
			return mpi.RunOptions{Tracer: tr, Metrics: world, Transport: tel.Transport(), Workers: tel.Workers()}
		},
		FlightDir: filepath.Dir(r.base),
		OnRestart: func(err error, from, to int) {
			fmt.Printf("crash detected: %v; restarting from last checkpoint on %d ranks (was %d)\n", err, to, from)
		},
	}
	res, err := job.Run()
	if err != nil {
		return res, err
	}
	fmt.Printf("completed %d steps on %d ranks\n", res.Steps, res.Ranks)
	fmt.Printf("final field hash: %#016x\n", res.Hash)
	if job.Plan != nil {
		fs := res.Faults
		fmt.Printf("fault stats: drops=%d retries=%d dups=%d dedups=%d delays=%d reorders=%d stalls=%d\n",
			fs.Drops, fs.Retries, fs.Dups, fs.Dedups, fs.Delays, fs.Reorders, fs.Stalls)
	}
	return res, nil
}
