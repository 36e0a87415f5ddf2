package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
)

func smallConfig(t *testing.T) config {
	return config{seed: 3, seconds: 0.01, outDir: t.TempDir(), small: true}
}

// TestWorkloadsSmall runs every workload, untraced and traced, at its
// minimal size and checks that it reports exactly its metrics and passes
// its own output checks.
func TestWorkloadsSmall(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t)
			if name == "serve-mix" {
				cfg.seconds = 1
			}
			run, defs := w.run, endToEnd
			if traced {
				run, defs = w.traced, perLayer
			}
			res, err := run(cfg).result(defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; ok && v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestCorruptChecksumFails shows that a forest whose checksum differs from
// the recorded reference fails every build and the run.
func TestCorruptChecksumFails(t *testing.T) {
	cfg := smallConfig(t)
	cfg.corrupt = true
	res, err := runForest(cfg).result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupted reference: correct=%v attempted=%d failed=%d, want every build failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestOpenLoopTimesFromDue stalls one submission and checks that later
// submissions keep their due times, report how late they went out, and
// that latency counts from the due time, not the send time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const rate = 100 // 10ms apart
	const stall = 50 * time.Millisecond
	var due, sent []time.Time
	err := generate(6, rate, func(i int, d, s time.Time) error {
		due, sent = append(due, d), append(sent, s)
		if i == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	period := time.Second / rate
	for i := 1; i < len(due); i++ {
		if got := due[i].Sub(due[0]); got != time.Duration(i)*period {
			t.Errorf("job %d due %v after job 0, want %v", i, got, time.Duration(i)*period)
		}
	}
	if late := sent[2].Sub(due[2]); late < stall-period-5*time.Millisecond {
		t.Errorf("job 2 went out %v late, want about %v", late, stall-period)
	}

	fin := due[2].Add(30 * time.Millisecond)
	j := submitted{due: due[2], sent: sent[2], view: serve.JobView{State: serve.StateDone, Finished: &fin}}
	if got := j.latency(); got != 0.030 {
		t.Errorf("latency %v, want 0.030 from the due time", got)
	}
	j.refused = true
	if got := j.latency(); got < 1e300 {
		t.Errorf("refused job latency %v, want +Inf", got)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics the program reports, with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
