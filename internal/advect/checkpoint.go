package advect

import (
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
)

// SaveCheckpoint writes the solver state at step to the checkpoint base
// (see core.SaveCheckpoint). Collective; all ranks return the same error.
func (s *Solver) SaveCheckpoint(base string, step int64) error {
	err := s.F.SaveCheckpoint(base, s.Mesh.Np, core.FieldMeta{Step: step, Time: s.Time}, s.C)
	if err == nil {
		s.Met.AddCount("checkpoint_saves", 1)
		s.Met.Gauge("checkpoint_last_step").Set(step)
	}
	return err
}

// OpenShell is the shell run's build-or-resume constructor: with base ""
// it builds a fresh solver (NewShell), otherwise it restores the one
// checkpointed at base (ResumeShell). It returns the step the run
// continues after, 0 for a fresh build.
func OpenShell(comm *mpi.Comm, opts Options, base string) (*Solver, int64, error) {
	if base == "" {
		return NewShell(comm, opts), 0, nil
	}
	return ResumeShell(comm, opts, base)
}

// ResumeShell restores the shell solver checkpointed at base and returns
// it along with the step the checkpoint was taken at. The options must
// equal the original run's; the mesh, metric terms, and velocity samples
// are rebuilt from the restored forest.
func ResumeShell(comm *mpi.Comm, opts Options, base string) (*Solver, int64, error) {
	conn := connectivity.Shell(0.55, 1.0)
	np1 := opts.Degree + 1
	f, data, meta, err := core.LoadCheckpoint(comm, conn, base, np1*np1*np1)
	if err != nil {
		return nil, 0, err
	}
	s := newSolver(comm, conn, opts, nil, nil)
	s.F = f
	s.rebuild()
	s.C = data
	s.Time = meta.Time
	return s, meta.Step, nil
}

// SimTime returns the simulation time reached.
func (s *Solver) SimTime() float64 { return s.Time }

// FieldHash returns the collective bitwise fingerprint of the solver
// state (solution values in global curve order plus the simulation time),
// identical on every rank.
func (s *Solver) FieldHash() uint64 {
	return core.HashFields(s.Comm, s.Time, s.C)
}
