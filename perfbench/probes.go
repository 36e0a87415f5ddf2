package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Layer probes, run once per traced run after the workload: rank-to-rank
// latency and bandwidth of each transport, and the host's streaming memory
// bandwidth the kernel's computed traffic is compared against.

const (
	pingRounds = 20000
	bwRounds   = 200
	bwFloats   = 1 << 17 // 1 MiB payload
)

// pingPong measures one-way latency (us) and bandwidth (GB/s) between two
// ranks over Comm.Send/Recv on the named transport. Payloads travel by
// reference, so the bandwidth is the message rate times the payload size
// the runtime accounts for, not a copy rate.
func pingPong(tp string) (latUS, gbps float64) {
	var lat, bw time.Duration
	mpi.RunOpt(2, mpi.RunOptions{Transport: tp, Workers: workers}, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		round := func(payload any) {
			if c.Rank() == 0 {
				c.Send(peer, 1, payload)
				c.Recv(peer, 1)
			} else {
				p, _ := c.Recv(peer, 1)
				c.Send(peer, 1, p)
			}
		}
		for i := 0; i < pingRounds/10; i++ { // warm up
			round(i)
		}
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < pingRounds; i++ {
			round(i)
		}
		d := time.Since(t0)
		buf := make([]float64, bwFloats)
		c.Barrier()
		t1 := time.Now()
		for i := 0; i < bwRounds; i++ {
			round(buf)
		}
		if c.Rank() == 0 {
			lat, bw = d, time.Since(t1)
		}
	})
	latUS = lat.Seconds() * 1e6 / (2 * pingRounds)
	gbps = 2 * bwRounds * bwFloats * 8 / bw.Seconds() / 1e9
	return latUS, gbps
}

// Triad sizing: three arrays of triadLen float64 (147.5 MiB each, 442 MiB
// in all), at least four times the 105 MiB last-level cache of the host the
// benchmark was sized on, so the probe streams from memory.
const (
	triadLen  = 19_333_120
	triadReps = 4
)

// triad measures STREAM-triad bandwidth a[i] = b[i] + s*c[i] with one
// goroutine per processor, counting 24 bytes per element (two reads, one
// write; write-allocate traffic not counted). Best of triadReps.
func triad(procs, n int) (gbps float64, arrayMiB float64) {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < triadReps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		chunk := (n + procs - 1) / procs
		for p := 0; p < procs; p++ {
			lo, hi := p*chunk, min((p+1)*chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if a[n-1] != 7 {
		panic("triad probe computed a wrong value")
	}
	return 24 * float64(n) / best.Seconds() / 1e9, float64(n) * 8 / float64(1<<20)
}

// setProbes runs the transport and memory probes into o (with small
// arrays when cfg.small).
func (o *outcome) setProbes(cfg config) {
	procs, n := runtime.NumCPU(), triadLen
	if cfg.small {
		n = 1 << 20
	}
	for _, tp := range []string{"chan", "shm"} {
		lat, bw := pingPong(tp)
		o.set("mpi.pingpong_us."+tp, lat)
		o.set("mpi.bw_gbps."+tp, bw)
	}
	gbps, mib := triad(procs, n)
	o.set("host.triad_gbps", gbps)
	o.note("triad probe: 3 arrays x %.1f MiB, last-level cache %s, %d goroutines", mib, llcSize(), procs)
}

// llcSize reports the size of the largest CPU cache the kernel lists.
func llcSize() string {
	size := "unknown"
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		size = strings.TrimSpace(string(b))
	}
	return size
}
