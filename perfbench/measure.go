package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// cpuNow returns the CPU time the process has used so far, user plus
// system, over all its threads. On a virtual machine the kernel leaves out
// time the hypervisor gave to other guests (steal), which wall-clock time
// includes.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// cost is what one measured interval used: wall-clock seconds, process
// CPU seconds (all threads), and MB (10^6 bytes) of heap allocated.
type cost struct{ wall, cpu, allocMB float64 }

type meter struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
}

// heapAllocated returns the bytes the process has allocated on the heap.
func heapAllocated() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func startMeter() meter { return meter{t: time.Now(), cpu: cpuNow(), alloc: heapAllocated()} }

func (m meter) stop() cost {
	return cost{wall: time.Since(m.t).Seconds(), cpu: (cpuNow() - m.cpu).Seconds(),
		allocMB: float64(heapAllocated()-m.alloc) / 1e6}
}

// startSettled collects the garbage earlier work left behind, so that its
// collection is not charged to the interval about to be measured, and
// starts a meter once every rank is past that point. Collective; the
// caller reads rank 0's meter after a closing barrier.
func startSettled(c *mpi.Comm) meter {
	if c.Rank() == 0 {
		runtime.GC()
	}
	c.Barrier()
	return startMeter()
}

// batchedSetup times batches of cycles back-to-back calls of cycle and
// returns each batch's cost per call, after one untimed batch that warms
// up code paths and the heap. Set-ups that take well under a millisecond
// are timed in batches because the kernel brings the CPU time of threads
// other than the caller up to date only at scheduler ticks.
func batchedSetup(batches, cycles int, cycle func(i int) error) ([]cost, error) {
	var out []cost
	for b := -1; b < batches; b++ {
		runtime.GC()
		m := startMeter()
		for i := 0; i < cycles; i++ {
			if err := cycle((b+1)*cycles + i); err != nil {
				return nil, err
			}
		}
		c := m.stop()
		if b < 0 {
			continue
		}
		out = append(out, cost{wall: c.wall / float64(cycles), cpu: c.cpu / float64(cycles), allocMB: c.allocMB / float64(cycles)})
	}
	return out, nil
}

func field(cs []cost, f func(cost) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func wallOf(c cost) float64  { return c.wall }
func cpuOf(c cost) float64   { return c.cpu }
func allocOf(c cost) float64 { return c.allocMB }

// setResults fills the end-to-end metrics from the costs of the set-ups
// and of the results, measured back to back by one client.
func (o *outcome) setResults(setups, results []cost) {
	o.set("setup_s", median(field(setups, cpuOf)))
	o.set("result_cpu_s", median(field(results, cpuOf)))
	o.set("alloc_mb_per_result", median(field(results, allocOf)))
	w := field(results, wallOf)
	o.note("results: n=%d wall p50=%.4fs p90=%.4fs (nearest rank), cpu p50=%.4fs, alloc p50=%.1fMB; setup wall p50=%.4gs cpu p50=%.4gs (n=%d)",
		len(w), median(w), quantile(w, 0.9), median(field(results, cpuOf)), median(field(results, allocOf)),
		median(field(setups, wallOf)), median(field(setups, cpuOf)), len(setups))
}

// setWall fills the wall-clock view of the end-to-end metrics, reported
// with the per-layer metrics because the host's noise is wider than their
// bounds would allow.
func (o *outcome) setWall(setups, results []cost) {
	w := field(results, wallOf)
	o.set("wall.setup_s", median(field(setups, wallOf)))
	o.set("wall.result_p50_s", median(w))
	o.set("wall.result_p90_s", quantile(w, 0.9))
	o.set("wall.results_per_s", float64(len(w))/sum(w))
}

// zeroLayer sets every shared per-layer metric to 0, so layers a workload
// does not exercise report that they did no work.
func (o *outcome) zeroLayer() {
	for _, d := range perLayer {
		o.set(d.Name, 0)
	}
}

// livePeakMB runs fn, one extra untimed result, with the collector at
// GOGC=10 and returns the largest live heap (bytes a collection marked
// reachable) seen meanwhile, in MB. Collections then come after every
// tenth of the live heap allocated, so the samples follow the live set
// closely instead of depending on when a default-paced collection happens
// to run.
func livePeakMB(fn func()) float64 {
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var peak uint64
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		rtmetrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak) / 1e6
}

// spanDurations returns the lengths in seconds of the completed spans
// named name on every lane of tr, the benchmark's own span recorder (one
// lane per rank or client; nil when untraced).
func spanDurations(tr *trace.Tracer, name string) []float64 {
	var out []float64
	for lane := 0; lane < tr.NumRanks(); lane++ {
		for _, ev := range tr.Rank(lane).Events() {
			if ev.Name == name && ev.Dur >= 0 {
				out = append(out, ev.Dur.Seconds())
			}
		}
	}
	return out
}

// writeTraces stores the benchmark's spans, the program's spans (if a
// tracer was attached) and the per-layer table of o under cfg.outDir.
func writeTraces(cfg config, name string, own, prog *trace.Tracer, o *outcome) {
	base := filepath.Join(cfg.outDir, name)
	files := []string{base + ".bench.trace.json", base + ".layers.txt"}
	err := own.WriteChromeTraceFile(files[0])
	if err == nil && prog != nil {
		files = append(files, base+".program.trace.json")
		err = prog.WriteChromeTraceFile(files[2])
	}
	if err == nil {
		err = writeLayerTable(files[1], o.metrics)
	}
	if err != nil {
		o.problem("writing traces: %v", err)
		return
	}
	o.note("traces: %v", files)
}

func writeLayerTable(path string, m map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-28s %14.6g %s\n", n, m[n], units[n])
	}
	return f.Close()
}

// commCount is one rank's message counters, read from its own shard of
// the world registry, so that a difference of two readings counts exactly
// what the rank did in between.
type commCount struct {
	msgs, bytes int64
	wait        time.Duration // blocked in receives
}

// readComm reads the calling rank's counters (zero when the world has no
// registry).
func readComm(c *mpi.Comm) commCount {
	reg := c.Metrics()
	if reg == nil {
		return commCount{}
	}
	s := c.MetricsShard()
	return commCount{
		msgs:  reg.Counter("mpi_msgs_sent").ShardValue(s),
		bytes: reg.Counter("mpi_bytes_sent").ShardValue(s),
		wait:  time.Duration(reg.Histogram("mpi_recv_wait", metrics.UnitDuration).SumShard(s)),
	}
}

// add accumulates the counts of the interval from start to end.
func (a *commCount) add(start, end commCount) {
	a.msgs += end.msgs - start.msgs
	a.bytes += end.bytes - start.bytes
	a.wait += end.wait - start.wait
}

// setMPI fills the message metrics, per result, from the counts of the
// measured intervals summed over ranks.
func (o *outcome) setMPI(cc commCount, results int) {
	n := float64(results)
	o.set("mpi.msgs_per_result", float64(cc.msgs)/n)
	o.set("mpi.bytes_per_result", float64(cc.bytes)/n)
	o.set("mpi.recv_wait_s", cc.wait.Seconds()/n)
}

// phases indexes the program's phase spans aggregated over ranks
// (trace.Tracer.Aggregate) by name.
func phases(stats []trace.PhaseStat) map[string]trace.PhaseStat {
	out := map[string]trace.PhaseStat{}
	for _, st := range stats {
		if st.Cat == trace.CatPhase {
			out[st.Name] = st
		}
	}
	return out
}

// window is the range [from, to) of indices into one rank's program
// events that fall in a measured interval. A rank stores its events in
// the order their spans began, so the indices read at the interval's
// start and end bound it.
type window struct{ from, to int }

// eventCount returns how many program events rank has stored so far (0
// when untraced). Call it from the rank's own goroutine.
func eventCount(tr *trace.Tracer, rank int) int { return len(tr.Rank(rank).Events()) }

func (w window) events(tr *trace.Tracer, rank int) []trace.Event {
	return tr.Rank(rank).Events()[w.from:w.to]
}

// aggregateWindows is trace.Tracer.Aggregate for the phase spans inside
// each rank's window only: per-rank totals, their max and mean, the wait
// share and the max/avg imbalance.
func aggregateWindows(tr *trace.Tracer, wins []window) map[string]trace.PhaseStat {
	p := tr.NumRanks()
	perRank := map[string][]time.Duration{}
	out := map[string]trace.PhaseStat{}
	for r := 0; r < p; r++ {
		for _, ev := range wins[r].events(tr, r) {
			if ev.Dur < 0 || ev.Cat != trace.CatPhase {
				continue
			}
			if perRank[ev.Name] == nil {
				perRank[ev.Name] = make([]time.Duration, p)
			}
			perRank[ev.Name][r] += ev.Dur
			st := out[ev.Name]
			st.Count++
			st.Wait += ev.Wait
			out[ev.Name] = st
		}
	}
	for name, tot := range perRank {
		st := out[name]
		st.Name, st.Cat = name, trace.CatPhase
		for _, d := range tot {
			st.Total += d
			st.Max = max(st.Max, d)
		}
		st.Avg = st.Total / time.Duration(p)
		st.Imbalance = 1
		if st.Avg > 0 {
			st.Imbalance = float64(st.Max) / float64(st.Avg)
		}
		if st.Total > 0 {
			st.WaitShare = float64(st.Wait) / float64(st.Total)
		}
		out[name] = st
	}
	return out
}

// setCore fills the core.* metrics from the program's phase spans: phase
// times are the slowest rank's total divided by the number of results,
// normalized per million octants where the paper's Figure 4 does;
// imbalance is max/avg over ranks and wait_share the share of the phase
// spent blocked in receives.
func (o *outcome) setCore(ps map[string]trace.PhaseStat, results int, octants int64, rounds int) {
	per := func(name string) float64 { return ps[name].Max.Seconds() / float64(results) }
	for _, ph := range []string{"refine", "partition", "balance", "ghost", "nodes"} {
		o.set("core."+ph+"_s", per(ph))
	}
	for _, ph := range []string{"balance", "partition", "ghost", "nodes"} {
		if st, ok := ps[ph]; ok && st.Avg > 0 {
			o.set("core."+ph+".imbalance", st.Imbalance)
			o.set("core."+ph+".wait_share", st.WaitShare)
		}
	}
	o.set("core.octants", float64(octants))
	o.set("core.balance_rounds", float64(rounds))
	if octants > 0 {
		moct := float64(octants) / 1e6
		o.set("core.balance_s_per_moct", per("balance")/moct)
		o.set("core.nodes_s_per_moct", per("nodes")/moct)
	}
}

// overheadPct compares the traced and untraced median result times.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced) - u) / u
}
