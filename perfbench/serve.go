package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// serve-mix: the job service in process, behind its HTTP handler on a
// loopback listener, fed serve.DefaultMix(). Phase one is closed loop:
// nproc clients each submit a job and follow it to its end, which measures
// capacity. Phase two is open loop: one generator on one keep-alive
// connection submits on a fixed schedule at openRate, and every job is
// timed from the moment it was due to be sent to its terminal state.

type serveCase struct {
	maxActive                 int
	closedFrac                float64 // share of the run spent in the closed-loop phase
	rate                      float64 // open-loop submissions per second
	setupBatches, setupCycles int     // service start/stop cycles timed for setup_s
	heapJobs                  int     // closed-loop jobs of the heap pass
}

// openRate is about two thirds of the closed-loop capacity (33 jobs/s)
// measured on the 2-vCPU host the benchmark was sized on. It is fixed, not
// derived from a run, so every commit is offered the same load.
const openRate = 22.0

// Lanes of the benchmark's span recorder in a traced run: one per
// closed-loop client, then the open-loop generator, then jobLanes lanes the
// open-loop jobs' spans are spread over.
var (
	genLane = runtime.NumCPU()
	jobLane = genLane + 1
)

const jobLanes = 16

// jobWait bounds how long the benchmark waits for one job to finish before
// counting it as lost.
const jobWait = 60 * time.Second

func serveSetup(cfg config) serveCase {
	c := serveCase{maxActive: runtime.NumCPU(), closedFrac: 0.4, rate: openRate, setupBatches: 7, setupCycles: 3,
		heapJobs: 80}
	if cfg.small {
		c.rate, c.setupBatches, c.setupCycles, c.heapJobs = 10, 1, 1, 8
	}
	return c
}

// serveMix is serve.DefaultMix with the fabric and worker count pinned, so
// the jobs do not fall back to the process environment.
func serveMix() []serve.JobSpec {
	mix := serve.DefaultMix()
	for i := range mix {
		mix[i].Transport, mix[i].Workers = transport, workers
	}
	return mix
}

// jobKind names a mix entry for the per-kind metrics.
func jobKind(sp serve.JobSpec) string {
	switch {
	case sp.Type == serve.TypeAdvect && sp.CheckpointEvery > 0:
		return "advect_ckpt"
	default:
		return sp.Type
	}
}

// service is one scheduler behind one loopback HTTP server.
type service struct {
	sched  *serve.Scheduler
	srv    *http.Server
	url    string
	served chan struct{}
}

// startService brings the scheduler and listener up and returns once the
// handler has answered one request.
func startService(dir string, maxActive int) (*service, error) {
	sched, err := serve.NewScheduler(serve.Config{MaxActive: maxActive, DataDir: dir, DefaultTransport: transport}, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Drain()
		return nil, err
	}
	sv := &service{sched: sched, srv: &http.Server{Handler: serve.NewHandler(sched, nil)},
		url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(sv.served)
		sv.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	client := newClient(1)
	defer client.CloseIdleConnections()
	resp, err := client.Get(sv.url + "/jobs")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readiness probe: %s", resp.Status)
		}
	}
	if err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// dialNoLinger dials TCP with SO_LINGER 0, so closing the connection
// resets it instead of leaving a TIME_WAIT socket behind: every set-up
// opens connections to a new listener, and sockets piling up from earlier
// set-ups and runs would make later connects slower.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if err := c.(*net.TCPConn).SetLinger(0); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// close stops the listener, waits for the serving goroutine, and drains
// the scheduler.
func (sv *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	<-sv.served
	sv.sched.Drain()
	return err
}

// submitted is one job the benchmark sent (or tried to).
type submitted struct {
	kind      string
	due, sent time.Time // open loop only
	submit    time.Duration
	id        string
	refused   bool
	view      serve.JobView
	events    []serve.Event
	lost      error // the job's end could not be observed
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DialContext: dialNoLinger}}
}

// coldStart is one set-up of the service as a user meets it: scheduler
// and listener up, one job run to done, shut down. The first job is part
// of set-up because the service starts nothing before it; timing the bare
// start alone would time little but loopback socket calls.
func coldStart(dir string, maxActive int, spec serve.JobSpec) error {
	sv, err := startService(dir, maxActive)
	if err != nil {
		return err
	}
	client := newClient(1)
	j := &submitted{}
	j.id, j.refused, err = postJob(client, sv.url, spec)
	if err == nil && !j.refused {
		follow(client, sv.url, j)
		if j.lost == nil && j.view.State != serve.StateDone {
			j.lost = fmt.Errorf("first job ended %s: %s", j.view.State, j.view.Error)
		}
		err = j.lost
	} else if err == nil {
		err = errors.New("first job refused")
	}
	client.CloseIdleConnections()
	if cerr := sv.close(); err == nil {
		err = cerr
	}
	return err
}

// postJob submits one spec and returns the accepted view's id, or
// refused on 429.
func postJob(client *http.Client, url string, spec serve.JobSpec) (id string, refused bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, err
	}
	resp, err := client.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var v serve.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return "", false, fmt.Errorf("decode submit reply: %w", err)
		}
		return v.ID, false, nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return "", true, nil
	default:
		b, _ := io.ReadAll(resp.Body)
		return "", false, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
}

// follow reads the job's event stream to its end (the server closes it at
// the terminal state) and then fetches the final view.
func follow(client *http.Client, url string, j *submitted) {
	ctx, cancel := context.WithTimeout(context.Background(), jobWait)
	defer cancel()
	get := func(path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return resp, err
	}
	resp, err := get("/jobs/" + j.id + "/events")
	if err != nil {
		j.lost = err
		return
	}
	j.events, err = readEvents(resp.Body)
	resp.Body.Close()
	if err != nil {
		j.lost = err
		return
	}
	resp, err = get("/jobs/" + j.id)
	if err != nil {
		j.lost = err
		return
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&j.view); err != nil {
		j.lost = err
	}
}

// readEvents parses a Server-Sent Events stream of serve.Event data lines.
func readEvents(r io.Reader) ([]serve.Event, error) {
	var evs []serve.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return evs, fmt.Errorf("decode event: %w", err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// closedLoop runs clients that each submit a job, follow it to its end,
// and repeat until d has passed or limit jobs (if > 0) were started.
// Admission rejections are retried with linear backoff and counted.
func closedLoop(sv *service, mix []serve.JobSpec, order []int, clients int, d time.Duration, limit int, own *trace.Tracer) (jobs []*submitted, retries int64, err error) {
	client := newClient(clients)
	defer client.CloseIdleConnections()
	var (
		mu       sync.Mutex
		next     atomic.Int64
		nretry   atomic.Int64
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := own.Rank(c)
			for time.Since(start) < d {
				k := int(next.Add(1) - 1)
				if limit > 0 && k >= limit {
					return
				}
				spec := mix[order[k%len(order)]]
				j := &submitted{kind: jobKind(spec)}
				lane.Begin("serve.closed_job")
				t := time.Now()
				for attempt := 1; ; attempt++ {
					jid, refused, err := postJob(client, sv.url, spec)
					if err != nil {
						mu.Lock()
						firstErr = errors.Join(firstErr, err)
						mu.Unlock()
						return
					}
					if !refused {
						j.id = jid
						break
					}
					nretry.Add(1)
					time.Sleep(time.Duration(attempt) * 25 * time.Millisecond)
				}
				j.submit = time.Since(t)
				follow(client, sv.url, j)
				lane.End()
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, nretry.Load(), firstErr
}

// openLoop submits n jobs from one goroutine over one keep-alive
// connection on the fixed schedule of generate, then collects every job's
// end over the same connection.
func openLoop(sv *service, mix []serve.JobSpec, order []int, n int, rate float64, own *trace.Tracer) ([]*submitted, error) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	jobs := make([]*submitted, 0, n)
	lane := own.Rank(genLane)
	err := generate(n, rate, func(i int, due, sent time.Time) error {
		spec := mix[order[i%len(order)]]
		j := &submitted{kind: jobKind(spec), due: due, sent: sent}
		jobs = append(jobs, j)
		var err error
		j.id, j.refused, err = postJob(client, sv.url, spec)
		j.submit = time.Since(sent)
		lane.AddCompleted("serve.submit", trace.CatPhase, sent, j.submit)
		return err
	})
	// Streams of finished jobs replay and close at once; the rest end when
	// their job does.
	for _, j := range jobs {
		if err == nil && !j.refused {
			follow(client, sv.url, j)
		}
	}
	return jobs, err
}

// generate calls send n times, the i-th due at start + i/rate whatever
// earlier sends cost: an open loop. A send that falls behind its due time
// goes out at once; send learns both times, so the caller can time the
// request from when it was due and report how late the generator ran.
func generate(n int, rate float64, send func(i int, due, sent time.Time) error) error {
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(period)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := send(i, due, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// latency is the open-loop job latency from due time to terminal state.
// A refused, failed or lost job never meets any limit: +Inf.
func (j *submitted) latency() float64 {
	if j.refused || j.lost != nil || j.view.State != serve.StateDone || j.view.Finished == nil {
		return math.Inf(1)
	}
	return j.view.Finished.Sub(j.due).Seconds()
}

// serveRun is one closed-loop phase followed by one open-loop phase on a
// fresh service.
type serveRun struct {
	setups         []cost
	closed, open   []*submitted
	extra          []*submitted // closed-loop jobs of the untimed heap pass
	closedCost     cost
	retries        int64
	heapMB         float64
	latencies      []float64 // open loop, seconds, +Inf for misses
	lateMax        float64   // seconds the generator ran behind, worst case
	capacity       float64   // closed-loop jobs per second
	failures, jobs int
	done           int // closed-loop jobs that reached done
}

func runServeOnce(cfg config, sc serveCase, seconds float64, own *trace.Tracer, o *outcome) serveRun {
	var r serveRun
	dir, err := os.MkdirTemp(cfg.outDir, "serve-jobs-")
	if err != nil {
		o.problem("serve: %v", err)
		return r
	}
	defer os.RemoveAll(dir)
	mix := serveMix()
	r.setups, err = batchedSetup(sc.setupBatches, sc.setupCycles, func(i int) error {
		return coldStart(filepath.Join(dir, fmt.Sprintf("setup%d", i)), sc.maxActive, mix[0])
	})
	if err != nil {
		o.problem("serve: set-up: %v", err)
		return r
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	closedOrder := rng.Perm(len(mix))
	openOrder := rng.Perm(len(mix))

	// The scheduler keeps every job it ran, and the benchmark every job's
	// view and events, so the heap pass runs first, on its own service, for
	// a fixed number of jobs in the mix's own order: which jobs overlap
	// sets the peak, so a seeded order would make it vary with the seed.
	if sc.heapJobs > 0 {
		r.heapMB = livePeakMB(func() {
			hsv, err := startService(filepath.Join(dir, "heap"), sc.maxActive)
			if err != nil {
				o.problem("serve: start: %v", err)
				return
			}
			r.extra, _, err = closedLoop(hsv, mix, identity(len(mix)), runtime.NumCPU(), jobWait, sc.heapJobs, nil)
			if err != nil {
				o.problem("serve: closed loop: %v", err)
			}
			if err := hsv.close(); err != nil {
				o.problem("serve: stop: %v", err)
			}
		})
	}

	sv, err := startService(filepath.Join(dir, "run"), sc.maxActive)
	if err != nil {
		o.problem("serve: start: %v", err)
		return r
	}
	closedD := time.Duration(sc.closedFrac * seconds * float64(time.Second))
	runtime.GC()
	mc := startMeter()
	r.closed, r.retries, err = closedLoop(sv, mix, closedOrder, runtime.NumCPU(), closedD, 0, own)
	if err != nil {
		o.problem("serve: closed loop: %v", err)
	}
	r.closedCost = mc.stop()
	n := int(math.Round((1 - sc.closedFrac) * seconds * sc.rate))
	r.open, err = openLoop(sv, mix, openOrder, max(n, 1), sc.rate, own)
	if err != nil {
		o.problem("serve: open loop: %v", err)
	}
	if err := sv.close(); err != nil {
		o.problem("serve: stop: %v", err)
	}

	done := 0
	for _, j := range r.closed {
		if j.view.State == serve.StateDone && j.lost == nil {
			done++
		}
	}
	r.done = done
	r.capacity = float64(done) / r.closedCost.wall
	for _, j := range r.open {
		r.latencies = append(r.latencies, j.latency())
		if late := j.sent.Sub(j.due).Seconds(); late > r.lateMax {
			r.lateMax = late
		}
		if j.refused {
			r.retries++
		}
	}
	r.check(o)
	return r
}

// check counts every job that did not reach done as failed, and requires
// jobs with the same spec to end in the same field hash.
func (r *serveRun) check(o *outcome) {
	hashes := map[string]string{}
	for _, j := range append(append(append([]*submitted(nil), r.closed...), r.open...), r.extra...) {
		o.attempted++
		r.jobs++
		switch {
		case j.refused:
			o.problem("serve: a %s job was refused", j.kind)
		case j.lost != nil:
			o.problem("serve: job %s lost: %v", j.id, j.lost)
		case j.view.State != serve.StateDone:
			o.problem("serve: job %s ended %s: %s", j.id, j.view.State, j.view.Error)
		default:
			if h, ok := hashes[j.kind]; ok && h != j.view.FieldHash {
				o.problem("serve: %s job %s hash %s, earlier jobs %s", j.kind, j.id, j.view.FieldHash, h)
				o.failed++
			}
			hashes[j.kind] = j.view.FieldHash
			continue
		}
		o.failed++
		r.failures++
	}
}

// percentile returns the nearest-rank quantile of latencies that may hold
// +Inf for misses; a percentile that lands on a miss reports the wait
// bound, the least the miss cost.
func percentile(lat []float64, q float64) float64 {
	v := quantile(lat, q)
	if math.IsInf(v, 1) {
		return jobWait.Seconds()
	}
	return v
}

func runServe(cfg config) outcome {
	sc := serveSetup(cfg)
	var o outcome
	r := runServeOnce(cfg, sc, cfg.seconds, nil, &o)
	r.setE2E(&o, sc)
	return o
}

// setE2E fills the end-to-end metrics: CPU and allocation per job are the
// closed-loop phase's totals divided by the jobs it completed.
func (r *serveRun) setE2E(o *outcome, sc serveCase) {
	o.set("setup_s", median(field(r.setups, cpuOf)))
	o.set("heap_peak_mb", r.heapMB)
	o.set("result_cpu_s", r.closedCost.cpu/float64(max(r.done, 1)))
	o.set("alloc_mb_per_result", r.closedCost.allocMB/float64(max(r.done, 1)))
	o.note("serve-mix: closed loop %d clients, %d jobs in %.2fs (%.1f jobs/s); open loop %d jobs at %.0f/s, p50 %.1fms p90 %.1fms, generator at most %.2fms late; %d of %d jobs failed",
		runtime.NumCPU(), len(r.closed), r.closedCost.wall, r.capacity, len(r.open), sc.rate,
		1e3*percentile(r.latencies, 0.5), 1e3*percentile(r.latencies, 0.9), 1e3*r.lateMax, r.failures, r.jobs)
}

func tracedServe(cfg config) outcome {
	sc := serveSetup(cfg)
	sc.heapJobs = 0 // heap_peak_mb is an end-to-end metric
	var o outcome
	o.zeroLayer()
	half := cfg.seconds / 2
	plain := runServeOnce(cfg, sc, half, nil, &o)
	own := trace.New(jobLane + jobLanes)
	r := runServeOnce(cfg, sc, half, own, &o)
	o.set("wall.setup_s", median(field(plain.setups, wallOf)))
	o.set("wall.result_p50_s", percentile(plain.latencies, 0.5))
	o.set("wall.result_p90_s", percentile(plain.latencies, 0.9))
	o.set("wall.results_per_s", plain.capacity)
	o.set("trace.overhead_pct", overheadPct(finite(plain.latencies), finite(r.latencies)))

	var submit, queue, lateness []float64
	run := map[string][]float64{}
	var ckpt []float64
	all := append(append([]*submitted(nil), r.closed...), r.open...)
	for i, j := range all {
		ev := eventTimes(j.events)
		if len(ev.state["queued"]) == 0 || len(ev.state["running"]) == 0 || len(ev.state["done"]) == 0 {
			continue
		}
		queued, running, done := ev.state["queued"][0], ev.state["running"][0], ev.state["done"][0]
		run[j.kind] = append(run[j.kind], done.Sub(running).Seconds()*1e3)
		ckpt = append(ckpt, ev.ckpt...)
		if i < len(r.closed) {
			continue
		}
		submit = append(submit, j.submit.Seconds()*1e3)
		queue = append(queue, running.Sub(queued).Seconds()*1e3)
		lateness = append(lateness, j.sent.Sub(j.due).Seconds()*1e3)
		lane := own.Rank(jobLane + i%jobLanes)
		lane.AddCompleted("serve.job", trace.CatPhase, j.due, j.view.Finished.Sub(j.due))
		lane.AddCompleted("serve.queue", trace.CatPhase, queued, running.Sub(queued))
		lane.AddCompleted("serve.run", trace.CatPhase, running, done.Sub(running))
	}
	o.set("serve.submit_ms", median(submit))
	o.set("serve.queue_wait_ms.p50", quantile(queue, 0.5))
	o.set("serve.queue_wait_ms.p90", quantile(queue, 0.9))
	for _, k := range []string{"advect", "advect_ckpt", "seismic"} {
		o.set("serve.run_ms."+k, median(run[k]))
	}
	o.set("serve.ckpt_ms", median(ckpt))
	o.set("serve.gen_late_ms", maxOf(lateness))
	o.set("serve.retries_429", float64(r.retries))
	o.setProbes(cfg)
	writeTraces(cfg, "serve-mix", own, nil, &o)
	return o
}

// jobEvents are the timestamps of one job's event log: state transitions
// by state, and for each checkpoint the time since the previous event (the
// step that wrote it, its adapt cycle, and the checkpoint write), in ms.
type jobEvents struct {
	state map[string][]time.Time
	ckpt  []float64
}

func eventTimes(evs []serve.Event) jobEvents {
	je := jobEvents{state: map[string][]time.Time{}}
	for i, ev := range evs {
		switch ev.Type {
		case "state":
			if s, ok := ev.Data["state"].(string); ok {
				je.state[s] = append(je.state[s], ev.Time)
			}
		case "checkpoint":
			if i > 0 {
				je.ckpt = append(je.ckpt, ev.Time.Sub(evs[i-1].Time).Seconds()*1e3)
			}
		}
	}
	return je
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}
