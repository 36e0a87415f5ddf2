package main

import (
	"math/rand"
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/trace"
)

// forest-fractal: the Figure 4 pipeline through the public core calls, New
// → fractal Refine → Partition → Balance → Ghost → Nodes, then the dG mesh
// build, repeated. The forest algorithms and the mesh build do the work;
// the dG kernel does none.

type forestCase struct {
	ranks  int
	level  int8 // base level; the fractal refines four levels below it
	degree int  // degree of the dG mesh built on the balanced forest
}

func forestSetup(cfg config) forestCase {
	if cfg.small {
		return forestCase{ranks: 4, level: 0, degree: 1}
	}
	return forestCase{ranks: 8, level: 1, degree: 2}
}

// fractalRefiner is the paper's fractal mesh (recursively subdivide the
// children with identifiers 0, 3, 5 and 6) with the seed choosing, per
// tree, that set or its mirror image 1, 2, 4, 7. Both sets refine the same
// number of octants in a tree.
func fractalRefiner(seed int64, trees int, maxLevel int8) func(octant.Octant) bool {
	rng := rand.New(rand.NewSource(seed))
	mirror := make([]bool, trees)
	for t := range mirror {
		mirror[t] = rng.Intn(2) == 1
	}
	return func(o octant.Octant) bool {
		if o.Level >= maxLevel {
			return false
		}
		switch o.ChildID() {
		case 0, 3, 5, 6:
			return !mirror[o.Tree]
		}
		return mirror[o.Tree]
	}
}

// forestBuild is one result.
type forestBuild struct {
	build       cost
	octants     int64
	checksum    uint64
	validateErr error
	meshElems   int64
	rounds      int
	newmesh     float64 // slowest rank's mesh build, traced builds only
	comm        commCount
}

// buildForest starts a world, builds the pipeline once, and checks nothing
// itself; own (nil when untraced) receives the benchmark's phase spans,
// one lane per rank.
func buildForest(fc forestCase, seed int64, opts mpi.RunOptions, own *trace.Tracer) forestBuild {
	var b forestBuild
	newmesh := make([]float64, fc.ranks)
	comm := make([][2]commCount, fc.ranks)
	conn := connectivity.SixRotCubes()
	refine := fractalRefiner(seed, int(conn.NumTrees()), fc.level+4)
	lgl := mangll.NewLGL(fc.degree)
	mpi.RunOpt(fc.ranks, opts, func(c *mpi.Comm) {
		rank := c.Rank()
		lane := own.Rank(rank)
		m1 := startSettled(c)
		comm[rank][0] = readComm(c)
		lane.Begin("forest.build")
		phase := func(name string, fn func()) {
			lane.Begin(name)
			fn()
			lane.End()
		}
		var f *core.Forest
		var g *core.GhostLayer
		var m *mangll.Mesh
		phase("core.New", func() { f = core.New(c, conn, fc.level) })
		phase("core.Refine", func() { f.Refine(true, fc.level+4, refine) })
		phase("core.Partition", func() { f.Partition() })
		phase("core.Balance", func() { f.Balance(core.BalanceFull) })
		phase("core.Ghost", func() { g = f.Ghost() })
		phase("core.Nodes", func() { f.Nodes(g) })
		tm := time.Now()
		phase("mangll.NewMesh", func() { m = mangll.NewMesh(f, g, lgl) })
		newmesh[rank] = time.Since(tm).Seconds()
		comm[rank][1] = readComm(c)
		c.Barrier()
		lane.End()
		var build cost
		if rank == 0 {
			build = m1.stop()
		}
		err := f.Validate()
		octants, sum := f.NumGlobal(), f.Checksum()
		elems := mpi.AllreduceSum(c, int64(m.NumLocal))
		if rank == 0 {
			b = forestBuild{build: build, octants: octants,
				checksum: sum, validateErr: err, meshElems: elems, rounds: f.BalanceRounds}
		}
	})
	b.newmesh = maxOf(newmesh)
	for _, cc := range comm {
		b.comm.add(cc[0], cc[1])
	}
	return b
}

// forestReference builds the same balanced forest on one rank. The
// checksum is partition independent, so every parallel build must match
// this serial one leaf for leaf.
func forestReference(fc forestCase, seed int64) (octants int64, checksum uint64) {
	conn := connectivity.SixRotCubes()
	mpi.RunOpt(1, runOpts(nil, nil), func(c *mpi.Comm) {
		f := core.New(c, conn, fc.level)
		f.Refine(true, fc.level+4, fractalRefiner(seed, int(conn.NumTrees()), fc.level+4))
		f.Balance(core.BalanceFull)
		octants, checksum = f.NumGlobal(), f.Checksum()
	})
	return octants, checksum
}

// check applies the output checks to one build against the recorded
// reference values.
func (b forestBuild) check(o *outcome, octants int64, checksum uint64) {
	bad := false
	if b.validateErr != nil {
		o.problem("forest: Validate: %v", b.validateErr)
		bad = true
	}
	if b.octants != octants || b.meshElems != octants {
		o.problem("forest: %d octants and %d mesh elements, want %d", b.octants, b.meshElems, octants)
		bad = true
	}
	if b.checksum != checksum {
		o.problem("forest: checksum %#x, want %#x", b.checksum, checksum)
		bad = true
	}
	o.attempted++
	if bad {
		o.failed++
	}
}

// forestRef returns the recorded reference values; cfg.corrupt perturbs
// the checksum, which the benchmark's tests use to show that a wrong
// result fails the run.
func forestRef(fc forestCase, cfg config) (int64, uint64) {
	n, sum := forestReference(fc, cfg.seed)
	if cfg.corrupt {
		sum ^= 1
	}
	return n, sum
}

// forestLoop repeats builds for the given duration (at least minBuilds).
func forestLoop(fc forestCase, cfg config, seconds float64, minBuilds int, refN int64, refSum uint64,
	opts mpi.RunOptions, own *trace.Tracer, o *outcome) []forestBuild {
	var out []forestBuild
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(out) < minBuilds {
		b := buildForest(fc, cfg.seed, opts, own)
		b.check(o, refN, refSum)
		out = append(out, b)
	}
	return out
}

// forestSetups times the set-up of a build, world start plus
// connectivity, in batches (see batchedSetup).
func forestSetups(fc forestCase) []cost {
	setups, _ := batchedSetup(11, 1000, func(int) error {
		conn := connectivity.SixRotCubes()
		mpi.RunOpt(fc.ranks, runOpts(nil, nil), func(c *mpi.Comm) {
			if conn.NumTrees() == 0 {
				panic("empty connectivity")
			}
			c.Barrier()
		})
		return nil
	})
	return setups
}

func runForest(cfg config) outcome {
	fc := forestSetup(cfg)
	var o outcome
	refN, refSum := forestRef(fc, cfg)
	setups := forestSetups(fc)
	builds := forestLoop(fc, cfg, cfg.seconds, 3, refN, refSum, runOpts(nil, nil), nil, &o)
	o.set("heap_peak_mb", livePeakMB(func() {
		buildForest(fc, cfg.seed, runOpts(nil, nil), nil).check(&o, refN, refSum)
	}))
	var times []cost
	for _, b := range builds {
		times = append(times, b.build)
	}
	o.setResults(setups, times)
	o.note("forest-fractal: P=%d, %d octants, checksum %#x, %d balance rounds",
		fc.ranks, builds[0].octants, builds[0].checksum, builds[0].rounds)
	return o
}

func tracedForest(cfg config) outcome {
	fc := forestSetup(cfg)
	var o outcome
	o.zeroLayer()
	refN, refSum := forestRef(fc, cfg)
	half := cfg.seconds / 2
	plain := forestLoop(fc, cfg, half, 1, refN, refSum, runOpts(nil, nil), nil, &o)

	own := trace.New(fc.ranks)
	tr := trace.New(fc.ranks)
	reg := metrics.NewSharded(fc.ranks)
	traced := forestLoop(fc, cfg, half, 1, refN, refSum, runOpts(tr, reg), own, &o)

	var pt, tt, nm []float64
	var builds []cost
	var comm commCount
	for _, b := range plain {
		pt = append(pt, b.build.wall)
		builds = append(builds, b.build)
	}
	o.setWall(forestSetups(fc), builds)
	for _, b := range traced {
		tt = append(tt, b.build.wall)
		nm = append(nm, b.newmesh)
		comm.add(commCount{}, b.comm)
	}
	n := len(traced)
	o.set("trace.overhead_pct", overheadPct(pt, tt))
	o.setMPI(comm, n)
	o.setCore(phases(tr.Aggregate()), n, refN, traced[0].rounds)
	o.set("mangll.newmesh_s", median(nm))
	o.setProbes(cfg)
	writeTraces(cfg, "forest-fractal", own, tr, &o)
	return o
}
