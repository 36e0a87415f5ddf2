package seismic

import (
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
)

// SaveCheckpoint writes the solver state at step to the checkpoint base
// (see core.SaveCheckpoint). Collective; all ranks return the same error.
func (s *Solver) SaveCheckpoint(base string, step int64) error {
	err := s.F.SaveCheckpoint(base, s.Mesh.Np*NC, core.FieldMeta{Step: step, Time: s.Time}, s.Q)
	if err == nil {
		s.Met.AddCount("checkpoint_saves", 1)
		s.Met.Gauge("checkpoint_last_step").Set(step)
	}
	return err
}

// Resume restores a solver from the checkpoint at base onto the given
// connectivity and material model (both must match the original run) and
// returns it with the step the checkpoint was taken at. Any rank count
// works; the source field, if one was set, must be re-attached by the
// caller.
func Resume(comm *mpi.Comm, conn *connectivity.Conn, opts Options,
	matFn func(p [3]float64) Material, base string) (*Solver, int64, error) {
	np1 := opts.Degree + 1
	f, data, meta, err := core.LoadCheckpoint(comm, conn, base, np1*np1*np1*NC)
	if err != nil {
		return nil, 0, err
	}
	s := NewSolver(comm, f, opts, matFn)
	s.Q = data
	s.Time = meta.Time
	return s, meta.Step, nil
}

// OpenEarth is the earth run's build-or-resume constructor: with base ""
// it builds the PREM earth solver (NewEarthSolver), otherwise it restores
// the one checkpointed at base. Either way the EarthSource is attached
// (the source is not part of the checkpoint). It returns the step the run
// continues after, 0 for a fresh build.
func OpenEarth(comm *mpi.Comm, opts Options, base string) (*Solver, int64, error) {
	var s *Solver
	var start int64
	if base == "" {
		s = NewEarthSolver(comm, opts)
	} else {
		var err error
		s, start, err = Resume(comm, EarthConn(), opts, EarthMaterial, base)
		if err != nil {
			return nil, 0, err
		}
	}
	s.Source = EarthSource(opts)
	return s, start, nil
}

// Adapt is the lifecycle driver's adaptation hook. The earth run keeps
// its wavelength-adapted mesh, so it never changes anything; dynamic
// wavefront tracking is AdaptToWavefront, which takes tolerances.
func (s *Solver) Adapt() bool { return false }

// SimTime returns the simulation time reached.
func (s *Solver) SimTime() float64 { return s.Time }

// FieldHash returns the collective bitwise fingerprint of the solver
// state (all NC fields in global curve order plus the simulation time),
// identical on every rank.
func (s *Solver) FieldHash() uint64 {
	return core.HashFields(s.Comm, s.Time, s.Q)
}

// EarthConn returns the macro-connectivity BuildEarthForest meshes (the
// cubed ball, inner cube ending well inside the outer core), which a
// checkpoint resume of an earth run must pass to Resume.
func EarthConn() *connectivity.Conn {
	return connectivity.Ball(0.35, 1.0)
}
