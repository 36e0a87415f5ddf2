package mangll

import (
	"fmt"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/pool"
)

// LinkKind classifies a face connection of a local element.
type LinkKind int8

const (
	// LinkBoundary marks a face on the domain boundary.
	LinkBoundary LinkKind = iota
	// LinkEqual connects two same-size faces.
	LinkEqual
	// LinkToCoarse connects a fine face to the quadrant of a neighbour one
	// level coarser (this element's face is one of four half-size faces).
	LinkToCoarse
	// LinkToFineQuad connects one quadrant of a coarse face to a half-size
	// neighbour; a hanging face produces four such links.
	LinkToFineQuad
)

// FaceLink describes one face-flux connection of a local element. The
// alignment fields encode the relative rotation of the two faces, which for
// inter-tree connections follows the connectivity's integer transform
// ("the rotation of coordinate systems between octrees needs to be taken
// into account when aligning unknowns across inter-octree faces", §II.E).
type FaceLink struct {
	Elem int32 // local element index
	Face int8
	Kind LinkKind

	Nbr      int32 // neighbour element index (local, or ghost if NbrGhost)
	NbrGhost bool
	NbrFace  int8

	// Alignment from my face grid (i,j) to the neighbour's face grid:
	// (a,b) = Swap ? (j,i) : (i,j); i' = RevI ? N-a : a; j' = RevJ ? N-b : b.
	Swap, RevI, RevJ bool

	// LinkToCoarse: my quadrant within the neighbour's face, in the
	// neighbour's face frame. LinkToFineQuad: the quadrant of my face this
	// link covers, in my face frame.
	QuadI, QuadJ int8
}

// MapIndex maps my face node (i,j) to the neighbour's face grid.
func (l *FaceLink) MapIndex(n, i, j int) (int, int) {
	a, b := i, j
	if l.Swap {
		a, b = j, i
	}
	if l.RevI {
		a = n - a
	}
	if l.RevJ {
		b = n - b
	}
	return a, b
}

// orient packs the link's alignment flags into an index of
// Mesh.facePerm: bit 0 Swap, bit 1 RevI, bit 2 RevJ.
func (l *FaceLink) orient() int {
	o := 0
	if l.Swap {
		o |= 1
	}
	if l.RevI {
		o |= 2
	}
	if l.RevJ {
		o |= 4
	}
	return o
}

// Mesh is the dG view of a distributed forest: element node coordinates,
// curvilinear metric terms, face connections (including 2:1 hanging faces
// and inter-tree rotations), and the ghost-exchange machinery for fields.
type Mesh struct {
	F *core.Forest
	G *core.GhostLayer
	L *LGL

	Np1 int // nodes per direction, N+1
	Nf  int // nodes per face, (N+1)^2
	Np  int // nodes per element, (N+1)^3

	NumLocal int
	NumGhost int

	// X[a] holds coordinate a of every local element node: index e*Np+n.
	X [3][]float64
	// Jac[n] is the volume Jacobian determinant at each local node.
	Jac []float64
	// Gi[a][b] = J * d xi_a / d x_b at each local node (contravariant
	// metric scaled by J).
	Gi [3][3][]float64
	// MassInv[n] = 1 / (w_i w_j w_k J): inverse diagonal mass matrix.
	MassInv []float64
	// FaceArea[f][b] is component b of the outward area vector (J grad xi
	// scaled, unnormalized) at the face nodes of face f: index e*Nf+fn.
	FaceArea [6][3][]float64

	// FaceIdx[f][fn] is the volume node index of face node fn of face f.
	FaceIdx [6][]int32
	// facePerm[FaceLink.orient()][i+Np1*j] is the neighbour face-grid
	// index FaceLink.MapIndex(N, i, j) of my face node (i,j), tabulated
	// for all eight Swap/RevI/RevJ orientations so the face gathers do one
	// indexed load per node.
	facePerm [8][]int32

	Links []FaceLink

	// IntLinks/BndLinks partition the indices of Links: a link is a
	// boundary link iff its flux reads ghost (remote) data, i.e.
	// Kind != LinkBoundary && NbrGhost. Interior links — including
	// domain-boundary faces — depend only on local data, so their kernels
	// can run while the ghost exchange is in flight.
	IntLinks, BndLinks []int32

	// InteriorElems/BoundaryElems partition the local element indices by
	// the same criterion: a boundary element has at least one boundary
	// link. The ratio |Interior|/|Boundary| bounds how much compute is
	// available to hide the exchange behind (volume kernels of all
	// elements plus face kernels of interior links).
	InteriorElems, BoundaryElems []int32

	// Half-face interpolation matrices (1D), their exact L2 projections,
	// and the weighted-transpose quadrature transfer operators used by the
	// hanging-face lift.
	Ilo, Ihi   [][]float64
	Plo, Phi   [][]float64
	PwLo, PwHi [][]float64

	// Flat row-major copies of the operators above plus the
	// differentiation matrix; the hot tensor kernels read these so each
	// matrix row is one contiguous cache run. The [][]float64 forms stay
	// exported for external consumers (e.g. the float32 device backend).
	iloF, ihiF   []float64
	ploF, phiF   []float64
	pwloF, pwhiF []float64

	// ghost exchange: aligned per-peer element lists (parallel slices in
	// ascending peer-rank order), local element indices to send and ghost
	// element indices to receive, both in curve order.
	sendPeers []int
	sendLists [][]int32
	recvPeers []int
	recvLists [][]int32

	// Split-phase exchange state. Send staging buffers are double
	// buffered by exchange parity: with at most one exchange outstanding
	// per mesh (enforced by exchActive) and symmetric neighbor relations,
	// a rank can only reach its (k+2)-th StartGhostExchange after every
	// peer finished unpacking the parity-k buffers (its Finish of
	// exchange k+1 received messages the peer sent in Start k+1, which
	// follows the peer's Finish k), so reusing a buffer two exchanges
	// later never races a receiver still reading it even though payloads
	// transfer by reference.
	sendBufs   [2][][]float64
	sendBoxed  [2][]any // pre-boxed buffer payloads (boxing allocates)
	sendParity int
	recvReqs   []*mpi.Request
	exch       GhostExchange
	exchActive bool

	// MinLen is the smallest physical element edge length over all ranks
	// (used for CFL time-step selection).
	MinLen float64

	// Kernel driver state (see kernel.go): one Work context per pool
	// worker (works[0] doubles as the serial context, SerialWork), the
	// identity element list handed to serial
	// Volume hooks, and the fixed deterministic batch partition the pool
	// path fans out.
	works    []*Work
	pool     *pool.Pool
	allElems []int32
	allLinks []int32
	batches  []kernelBatch
	curK     Kernel // kernel of the Apply in progress (pool path only)
	spanA    []string
	spanB    []string
	spanC    []string
	phaseA   func(worker, batch int)
	phaseB   func(worker, batch int)
	phaseC   func(worker, batch int)

	// Staged-flux buffer of the Apply in progress: Nf values per
	// (link, component), written by the face hooks (StageFace) and
	// replayed in canonical link order by the Lift hook.
	stage   []float64
	stageNC int

	// element-sized scratch of the transfer (interpolate/project) kernels.
	tUc, tOc, tAcc, tT1, tT2 []float64
}

// NewMesh builds the dG mesh of degree n over the forest's current leaves.
// The forest must be 2:1 balanced (BalanceFull); ghost must be current.
func NewMesh(f *core.Forest, g *core.GhostLayer, l *LGL) *Mesh {
	np1 := l.N + 1
	m := &Mesh{
		F: f, G: g, L: l,
		Np1: np1, Nf: np1 * np1, Np: np1 * np1 * np1,
		NumLocal: len(f.Local), NumGhost: len(g.Octants),
	}
	m.buildFaceIdx()
	m.buildFacePerm()
	m.buildGeometry()
	m.buildLinks()
	m.buildGhostExchange()
	m.Ilo, m.Ihi = l.HalfInterp()
	m.Plo, m.Phi = halfProjections(l, m.Ilo, m.Ihi)
	m.PwLo = weightedTranspose(l, m.Ilo)
	m.PwHi = weightedTranspose(l, m.Ihi)
	m.iloF, m.ihiF = flatten(m.Ilo), flatten(m.Ihi)
	m.ploF, m.phiF = flatten(m.Plo), flatten(m.Phi)
	m.pwloF, m.pwhiF = flatten(m.PwLo), flatten(m.PwHi)
	m.buildKernelDriver()
	return m
}

// buildFaceIdx precomputes volume node indices of each face's node grid,
// ordered by the face's ascending tangent axes.
func (m *Mesh) buildFaceIdx() {
	np1 := m.Np1
	stride := [3]int{1, np1, np1 * np1}
	for f := 0; f < 6; f++ {
		axis := octant.FaceAxis(f)
		u, v := faceTangentAxes(f)
		fixed := 0
		if f&1 == 1 {
			fixed = np1 - 1
		}
		idx := make([]int32, m.Nf)
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				n := fixed*stride[axis] + i*stride[u] + j*stride[v]
				idx[i+np1*j] = int32(n)
			}
		}
		m.FaceIdx[f] = idx
	}
}

// buildFacePerm tabulates FaceLink.MapIndex for every orientation.
func (m *Mesh) buildFacePerm() {
	np1 := m.Np1
	for o := range m.facePerm {
		l := FaceLink{Swap: o&1 != 0, RevI: o&2 != 0, RevJ: o&4 != 0}
		perm := make([]int32, m.Nf)
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				i2, j2 := l.MapIndex(m.L.N, i, j)
				perm[i+np1*j] = int32(i2 + np1*j2)
			}
		}
		m.facePerm[o] = perm
	}
}

// faceTangentAxes returns the two transverse axes of face f ascending.
func faceTangentAxes(f int) (u, v int) {
	switch octant.FaceAxis(f) {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// buildGeometry evaluates node coordinates via the connectivity's geometry
// and computes the discrete metric terms the spectral element method needs.
func (m *Mesh) buildGeometry() {
	np1, np := m.Np1, m.Np
	nl := m.NumLocal
	for a := 0; a < 3; a++ {
		m.X[a] = make([]float64, nl*np)
	}
	m.Jac = make([]float64, nl*np)
	m.MassInv = make([]float64, nl*np)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			m.Gi[a][b] = make([]float64, nl*np)
		}
	}
	for f := 0; f < 6; f++ {
		for b := 0; b < 3; b++ {
			m.FaceArea[f][b] = make([]float64, nl*m.Nf)
		}
	}

	geom := m.F.Conn.Geometry()
	if geom == nil {
		panic("mangll: connectivity has no geometry")
	}

	// Node coordinates.
	for e, o := range m.F.Local {
		h := float64(o.Len()) / float64(octant.RootLen)
		t0 := [3]float64{
			connectivity.RefCoord(o.X),
			connectivity.RefCoord(o.Y),
			connectivity.RefCoord(o.Z),
		}
		base := e * np
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					xi := [3]float64{
						t0[0] + h*(m.L.X[i]+1)/2,
						t0[1] + h*(m.L.X[j]+1)/2,
						t0[2] + h*(m.L.X[k]+1)/2,
					}
					p := geom.X(o.Tree, xi)
					m.X[0][base+n] = p[0]
					m.X[1][base+n] = p[1]
					m.X[2][base+n] = p[2]
					n++
				}
			}
		}
	}

	// Metric terms per element: dx/dxi by spectral differentiation, then
	// J and J*dxi/dx by cofactors; face area vectors from the metric.
	dxdxi := make([][3][3]float64, np)
	var der [3][]float64
	for a := range der {
		der[a] = make([]float64, np)
	}
	minLen := 1e308
	for e := 0; e < nl; e++ {
		base := e * np
		for b := 0; b < 3; b++ { // physical coordinate
			gradient(np1, m.L.DF, m.X[b][base:base+np], der[0], der[1], der[2])
			for a := 0; a < 3; a++ { // reference direction
				for n := 0; n < np; n++ {
					dxdxi[n][b][a] = der[a][n]
				}
			}
		}
		for n := 0; n < np; n++ {
			d := dxdxi[n]
			j := det3f(d)
			if j <= 0 {
				panic(fmt.Sprintf("mangll: non-positive Jacobian %v in element %d", j, e))
			}
			m.Jac[base+n] = j
			// J * dxi_a/dx_b = cofactor transpose.
			co := cofactor3(d)
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					m.Gi[a][b][base+n] = co[a][b]
				}
			}
		}
		i3 := func(i, j, k int) int { return i + np1*(j+np1*k) }
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					n := i3(i, j, k)
					m.MassInv[base+n] = 1 / (m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[base+n])
				}
			}
		}
		for f := 0; f < 6; f++ {
			axis := octant.FaceAxis(f)
			sign := float64(octant.FaceSign(f))
			for fn := 0; fn < m.Nf; fn++ {
				vn := int(m.FaceIdx[f][fn])
				for b := 0; b < 3; b++ {
					m.FaceArea[f][b][e*m.Nf+fn] = sign * m.Gi[axis][b][base+vn]
				}
			}
		}
		// Element size estimate: distance between the two corner nodes
		// along x-axis line (approximate physical edge length).
		d0 := [3]float64{
			m.X[0][base+i3(np1-1, 0, 0)] - m.X[0][base+i3(0, 0, 0)],
			m.X[1][base+i3(np1-1, 0, 0)] - m.X[1][base+i3(0, 0, 0)],
			m.X[2][base+i3(np1-1, 0, 0)] - m.X[2][base+i3(0, 0, 0)],
		}
		le := norm3(d0)
		if le < minLen {
			minLen = le
		}
	}
	if nl == 0 {
		minLen = 1e308
	}
	m.MinLen = -mpi.AllreduceMax(m.F.Comm, -minLen)
}

func det3f(a [3][3]float64) float64 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

// cofactor3 returns C with C[a][b] = J * dxi_a/dx_b for d = dx/dxi
// (d[b][a] = dx_b/dxi_a).
func cofactor3(d [3][3]float64) [3][3]float64 {
	var c [3][3]float64
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			a1, a2 := (a+1)%3, (a+2)%3
			b1, b2 := (b+1)%3, (b+2)%3
			c[a][b] = d[b1][a1]*d[b2][a2] - d[b1][a2]*d[b2][a1]
		}
	}
	return c
}

func norm3(v [3]float64) float64 {
	return sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
}

// halfProjections builds the exact 1D L2 projection matrices from the two
// half intervals back to the parent interval: p = Plo u_lo + Phi u_hi.
// Mass and transfer integrals are evaluated with a quadrature of
// sufficient order, so projection is an exact left inverse of the half
// interpolation (polynomials survive a refine/coarsen round trip exactly).
func halfProjections(l *LGL, ilo, ihi [][]float64) (plo, phi [][]float64) {
	np1 := l.N + 1
	q := NewLGL(l.N + 2) // exact for degree 2N integrands
	// Parent basis at quadrature points, and at the images of the
	// quadrature points inside each half.
	phiQ := l.InterpMatrix(q.X)
	toLo := make([]float64, len(q.X))
	toHi := make([]float64, len(q.X))
	for i, x := range q.X {
		toLo[i] = (x - 1) / 2
		toHi[i] = (x + 1) / 2
	}
	phiLo := l.InterpMatrix(toLo)
	phiHi := l.InterpMatrix(toHi)

	mass := make([][]float64, np1)
	bLo := make([][]float64, np1)
	bHi := make([][]float64, np1)
	for i := 0; i < np1; i++ {
		mass[i] = make([]float64, np1)
		bLo[i] = make([]float64, np1)
		bHi[i] = make([]float64, np1)
		for j := 0; j < np1; j++ {
			for qp := range q.X {
				mass[i][j] += q.W[qp] * phiQ[qp][i] * phiQ[qp][j]
				// integral over the half interval of (child basis j) *
				// (parent basis i), with the 1/2 interval scaling.
				bLo[i][j] += 0.5 * q.W[qp] * phiLo[qp][i] * phiQ[qp][j]
				bHi[i][j] += 0.5 * q.W[qp] * phiHi[qp][i] * phiQ[qp][j]
			}
		}
	}
	plo = solveDenseMulti(mass, bLo)
	phi = solveDenseMulti(mass, bHi)
	return plo, phi
}

// solveDenseMulti solves A X = B for X with Gaussian elimination and
// partial pivoting (A is a small SPD mass matrix).
func solveDenseMulti(a, b [][]float64) [][]float64 {
	n := len(a)
	// Copy into augmented form.
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, 2*n)
		copy(m[i], a[i])
		copy(m[i][n:], b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		piv := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			fac := m[r][col] / piv
			for cc := col; cc < 2*n; cc++ {
				m[r][cc] -= fac * m[col][cc]
			}
		}
	}
	x := make([][]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			x[i][j] = m[i][n+j] / m[i][i]
		}
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
