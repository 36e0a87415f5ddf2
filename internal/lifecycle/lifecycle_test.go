package lifecycle_test

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advect"
	"repro/internal/lifecycle"
	"repro/internal/mpi"
	"repro/internal/seismic"
	"repro/internal/telemetry"
)

// cliRun runs the robust mode exactly as cmd/advect and cmd/seismic do:
// flags parsed by NewCLI, then CLI.Run with the physics' build-or-resume
// constructor. A zero telemetry.Driver is the CLI with telemetry off.
func cliRun(t *testing.T, args []string, p, steps, adaptEvery int, open lifecycle.Open) (lifecycle.Result, error) {
	t.Helper()
	fs := flag.NewFlagSet("robust", flag.ContinueOnError)
	cli := lifecycle.NewCLI(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cli.Run(p, steps, adaptEvery, &telemetry.Driver{}, open)
}

// reference is the uninterrupted, fault-free run of the same physics on a
// rank count neither robust attempt uses.
func reference(t *testing.T, steps, adaptEvery int, open lifecycle.Open) uint64 {
	t.Helper()
	job := lifecycle.Job{
		Schedule: lifecycle.Schedule{Steps: steps, AdaptEvery: adaptEvery},
		Ranks:    4,
		Open:     open,
	}
	res, err := job.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res.Hash
}

func advectOpen(c *mpi.Comm, from string) (lifecycle.Physics, int64, error) {
	o := advect.DefaultOptions()
	o.Degree, o.Level, o.MaxLevel = 2, 1, 2
	return advect.OpenShell(c, o, from)
}

func seismicOpen(c *mpi.Comm, from string) (lifecycle.Physics, int64, error) {
	o := seismic.DefaultOptions()
	o.Degree, o.MinLevel, o.MaxLevel = 2, 1, 2
	return seismic.OpenEarth(c, o, from)
}

// TestCLICrashRestartMigrates drives both physics through the CLI robust
// mode with an injected crash at step 5 under a chaos plan: the run must
// restart from the step-4 checkpoint on a migrated rank count and finish
// bitwise-identical to the uninterrupted run.
func TestCLICrashRestartMigrates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		adaptEvery int
		open       lifecycle.Open
	}{
		{"advect", 2, advectOpen},
		{"seismic", 0, seismicOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const p, steps = 3, 6
			want := reference(t, steps, tc.adaptEvery, tc.open)
			base := filepath.Join(t.TempDir(), tc.name)
			res, err := cliRun(t, []string{
				"-checkpoint", base, "-checkpoint-every", "2",
				"-fault-drop", "0.2", "-fault-dup", "0.2", "-fault-reorder", "0.2",
				"-crash-rank", "1", "-crash-step", "5",
			}, p, steps, tc.adaptEvery, tc.open)
			if err != nil {
				t.Fatalf("robust run: %v", err)
			}
			if res.Ranks == p {
				t.Errorf("final attempt on %d ranks, want a migrated rank count", res.Ranks)
			}
			if res.Steps != steps {
				t.Errorf("completed %d steps, want %d", res.Steps, steps)
			}
			if res.Hash != want {
				t.Errorf("restarted run hash %#x, uninterrupted %#x", res.Hash, want)
			}
		})
	}
}

// TestNonCrashErrorNotRestarted pins the restart policy's other half: a
// failure that is not an injected crash — here a checkpoint written into
// a missing directory, with a crash armed for later — is returned from
// the first attempt, without a restart.
func TestNonCrashErrorNotRestarted(t *testing.T) {
	const p = 3
	base := filepath.Join(t.TempDir(), "missing", "adv")
	res, err := cliRun(t, []string{
		"-checkpoint", base, "-checkpoint-every", "2",
		"-crash-rank", "1", "-crash-step", "5",
	}, p, 6, 2, advectOpen)
	if err == nil {
		t.Fatal("checkpoint into a missing directory succeeded")
	}
	if mpi.IsInjectedCrash(err) {
		t.Fatalf("got the injected crash, want the checkpoint error: %v", err)
	}
	if !strings.Contains(err.Error(), "no such file or directory") {
		t.Errorf("error %q does not name the missing directory", err)
	}
	if res.Ranks != p {
		t.Errorf("error surfaced from an attempt on %d ranks, want the first (%d): restarted", res.Ranks, p)
	}
}

// TestScheduleCancel pins the cancellation point: a run canceled before
// step k+1 reports k as its last completed step, on every rank.
func TestScheduleCancel(t *testing.T) {
	const k = 2
	mpi.Run(2, func(c *mpi.Comm) {
		s, _, err := advectOpen(c, "")
		if err != nil {
			t.Error(err)
			return
		}
		polls := 0
		cancel := func() bool { polls++; return polls > k }
		last, err := lifecycle.Schedule{Steps: 6, Cancel: cancel}.Run(c, s, 0)
		if err != nil || last != k {
			t.Errorf("rank %d: canceled run = (%d, %v), want (%d, nil)", c.Rank(), last, err, k)
		}
	})
}
