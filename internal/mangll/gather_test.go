package mangll

import (
	"math/rand"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// refFaceValues is the per-node MapIndex formulation the table-driven
// FaceValues is pinned against: gather the neighbour's face in its own
// frame, interpolate it for LinkToCoarse, then align node by node.
func refFaceValues(m *Mesh, l *FaceLink, nc, comp int, field, out []float64) {
	np1 := m.Np1
	nbr := int(l.Nbr)
	if l.NbrGhost {
		nbr += m.NumLocal
	}
	nb := make([]float64, m.Nf)
	for fn, v := range m.FaceIdx[l.NbrFace] {
		nb[fn] = field[(nbr*m.Np+int(v))*nc+comp]
	}
	if l.Kind == LinkToCoarse {
		qi, qj := m.quadInterp(l)
		wk := make([]float64, m.Nf)
		tensor2ApplyBuf(np1, qi, qj, nb, wk, make([]float64, m.Nf))
		nb = wk
	}
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			i2, j2 := l.MapIndex(m.L.N, i, j)
			out[i+np1*j] = nb[i2+np1*j2]
		}
	}
}

// refMyFaceValues gathers my own face and, for LinkToFineQuad,
// interpolates it onto the quadrant's fine grid.
func refMyFaceValues(m *Mesh, l *FaceLink, nc, comp int, field, out []float64) {
	mine := make([]float64, m.Nf)
	for fn, v := range m.FaceIdx[l.Face] {
		mine[fn] = field[(int(l.Elem)*m.Np+int(v))*nc+comp]
	}
	if l.Kind == LinkToFineQuad {
		qi, qj := m.quadInterp(l)
		tensor2ApplyBuf(m.Np1, qi, qj, mine, out, make([]float64, m.Nf))
		return
	}
	copy(out, mine)
}

// rotatedRow is a row of unit-cube trees along x whose frames are turned
// about the x axis by the given numbers of quarter turns, so the shared
// faces meet in the Swap, RevI and RevJ alignments that the six-tree
// forest (Swap only) lacks.
func rotatedRow(turns []int) *connectivity.Conn {
	vid := func(x, y, z int) int64 { return int64(4*x + y + 2*z) }
	pos := make([][3]float64, 4*(len(turns)+1))
	for x := 0; x <= len(turns); x++ {
		for y := 0; y < 2; y++ {
			for z := 0; z < 2; z++ {
				pos[vid(x, y, z)] = [3]float64{float64(x), float64(y), float64(z)}
			}
		}
	}
	ttv := make([][8]int64, len(turns))
	for t, k := range turns {
		for c := 0; c < 8; c++ {
			a, b, cz := c&1, c>>1&1, c>>2&1
			for r := 0; r < k; r++ {
				b, cz = 1-cz, b // a quarter turn about x
			}
			ttv[t][c] = vid(t+a, b, cz)
		}
	}
	return connectivity.MustFromVertices(ttv, pos)
}

// checkGathers compares both gathers with their references on every
// non-boundary link of m for each component of a random nc-component
// field, and counts the links by kind and orientation into seen.
func checkGathers(t *testing.T, m *Mesh, rank, nc int, seen *[4][8]int) {
	rng := rand.New(rand.NewSource(int64(rank) + 1))
	field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np*nc)
	for i := range field[:m.NumLocal*m.Np*nc] {
		field[i] = rng.NormFloat64()
	}
	m.ExchangeGhost(nc, field)
	w := m.SerialWork()
	got, want := make([]float64, m.Nf), make([]float64, m.Nf)
	for li := range m.Links {
		l := &m.Links[li]
		if l.Kind == LinkBoundary {
			continue
		}
		seen[l.Kind][l.orient()]++
		for comp := 0; comp < nc; comp++ {
			w.FaceValues(l, nc, comp, field, got)
			refFaceValues(m, l, nc, comp, field, want)
			if i := sameBits(got, want); i >= 0 {
				t.Errorf("N=%d link %d (kind %d, orient %d) comp %d: FaceValues node %d = %v, MapIndex %v",
					m.L.N, li, l.Kind, l.orient(), comp, i, got[i], want[i])
				return
			}
			w.MyFaceValues(l, nc, comp, field, got)
			refMyFaceValues(m, l, nc, comp, field, want)
			if i := sameBits(got, want); i >= 0 {
				t.Errorf("N=%d link %d (kind %d) comp %d: MyFaceValues node %d = %v, reference %v",
					m.L.N, li, l.Kind, comp, i, got[i], want[i])
				return
			}
		}
	}
}

// TestFaceGathersMatchMapIndex pins the table-driven face gathers bitwise
// to the MapIndex formulation on the rotated six-tree forest and a row of
// rotated trees, with 2:1 hanging faces inside the trees and across the
// rotated inter-tree faces, on one rank and across ranks (ghost
// neighbours), for an interleaved multi-component field. Every link kind
// must occur both unrotated and in at least three rotated alignments.
func TestFaceGathersMatchMapIndex(t *testing.T) {
	// Refining even trees deeper puts hanging faces on the inter-tree
	// faces; refining every tree alike keeps those faces conforming.
	refines := []func(o octant.Octant) bool{
		func(o octant.Octant) bool { return o.Tree%2 == 0 && (o.Level < 2 || o.ChildID() == 0) },
		func(o octant.Octant) bool { return o.ChildID() == 0 },
	}
	var seen [4][8]int
	for _, conn := range []*connectivity.Conn{connectivity.SixRotCubes(), rotatedRow([]int{0, 1, 3, 0, 2})} {
		for _, refine := range refines {
			for _, deg := range []int{2, 3} {
				perRank := make([][4][8]int, 3)
				mpi.Run(len(perRank), func(c *mpi.Comm) {
					f := core.New(c, conn, 1)
					f.Refine(true, 3, refine)
					f.Balance(core.BalanceFull)
					f.Partition()
					m := NewMesh(f, f.Ghost(), NewLGL(deg))
					checkGathers(t, m, c.Rank(), 3, &perRank[c.Rank()])
				})
				for _, r := range perRank {
					for k := range r {
						for o, n := range r[k] {
							seen[k][o] += n
						}
					}
				}
			}
		}
	}
	for k := LinkEqual; k <= LinkToFineQuad; k++ {
		rotated := 0
		for o, n := range seen[k] {
			if o != 0 && n > 0 {
				rotated++
			}
		}
		if seen[k][0] == 0 || rotated < 3 {
			t.Errorf("link kind %d: %d unrotated links and %d rotated alignments (links by kind x orientation: %v)",
				k, seen[k][0], rotated, seen)
		}
	}
}
