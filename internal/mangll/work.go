package mangll

// Work is one worker's mesh-operation context: the face-sized scratch
// buffers the dG face kernels need, owned by exactly one pool worker (or
// by the rank goroutine itself on the serial path). Mesh state proper —
// geometry, operators, links, the face-permutation tables — is read-only
// during a kernel application and shared by all Works; only the scratch
// is per-worker, which is what lets N workers run the same kernels
// concurrently without locks.
//
// Kernel hooks must route every mesh operation through the Work they are
// handed, never through SerialWork (that is Work 0 and would race with
// worker 0).
type Work struct {
	m  *Mesh
	id int

	// Face-sized (Nf) scratch, fixed roles within one kernel: a holds
	// gathered face values, b a tensor-product result, c the tensor
	// workspace. Allocated eagerly so steady-state kernels allocate
	// nothing.
	sA, sB, sC []float64
}

func newWork(m *Mesh, id int) *Work {
	return &Work{
		m: m, id: id,
		sA: make([]float64, m.Nf),
		sB: make([]float64, m.Nf),
		sC: make([]float64, m.Nf),
	}
}

// ID returns the worker index in [0, workers); frontends use it to index
// their own per-worker scratch arrays.
func (w *Work) ID() int { return w.id }

// SerialWork returns the rank goroutine's own Work context (worker 0),
// for mesh operations performed outside a kernel application — setup,
// diagnostics, device staging. Never call it from a kernel hook.
func (m *Mesh) SerialWork() *Work { return m.works[0] }

// Mesh returns the mesh this context operates on.
func (w *Work) Mesh() *Mesh { return w.m }

// FaceValues extracts the neighbour's face values for a link, aligned to my
// face grid, into out (length Nf per component). field is a full
// local+ghost array with nc values per node; comp selects the component.
// For LinkToCoarse the coarse neighbour's face is interpolated onto my
// half-size face; for LinkToFineQuad the fine neighbour's face covers my
// quadrant directly (callers evaluate at the fine nodes).
func (w *Work) FaceValues(l *FaceLink, nc, comp int, field []float64, out []float64) {
	m := w.m
	nbrBase := int(l.Nbr)
	if l.NbrGhost {
		nbrBase += m.NumLocal
	}
	nbrBase = nbrBase*m.Np*nc + comp
	fidx := m.FaceIdx[l.NbrFace]
	perm := m.facePerm[l.orient()]
	out = out[:len(perm)]

	switch l.Kind {
	case LinkEqual, LinkToFineQuad:
		// Direct alignment; for ToFineQuad the neighbour's face maps onto
		// my quadrant's fine grid one-to-one.
		for fn, p := range perm {
			out[fn] = field[nbrBase+int(fidx[p])*nc]
		}
	case LinkToCoarse:
		// Interpolate the coarse face onto my quadrant (in the neighbour's
		// frame), then align indices.
		nb := w.sA
		for fn, v := range fidx {
			nb[fn] = field[nbrBase+int(v)*nc]
		}
		qi, qj := m.quadInterp(l)
		wk := w.sB
		tensor2ApplyBuf(m.Np1, qi, qj, nb, wk, w.sC)
		for fn, p := range perm {
			out[fn] = wk[p]
		}
	default:
		panic("mangll: FaceValues on boundary link")
	}
}

// MyFaceValues extracts my own element's face values for a link into out.
// For LinkToFineQuad, my coarse face is interpolated onto the quadrant's
// fine grid (in my frame) so both sides of the flux are collocated.
func (w *Work) MyFaceValues(l *FaceLink, nc, comp int, field []float64, out []float64) {
	m := w.m
	base := int(l.Elem)*m.Np*nc + comp
	fidx := m.FaceIdx[l.Face]
	mine := out[:len(fidx)]
	if l.Kind == LinkToFineQuad {
		mine = w.sA
	}
	for fn, v := range fidx {
		mine[fn] = field[base+int(v)*nc]
	}
	if l.Kind == LinkToFineQuad {
		qi, qj := m.quadInterp(l)
		tensor2ApplyBuf(m.Np1, qi, qj, mine, out, w.sC)
	}
}

// InterpFaceToQuad interpolates values given at my full face's nodes onto
// the fine grid of the link's quadrant (LinkToFineQuad only), in my frame.
func (w *Work) InterpFaceToQuad(l *FaceLink, face, out []float64) {
	qi, qj := w.m.quadInterp(l)
	tensor2ApplyBuf(w.m.Np1, qi, qj, face, out, w.sC)
}

// StageFace stores component comp of link li's face flux into the mesh's
// staged-flux buffer, to be replayed by the kernel's Lift hook. g holds
// Nf values in the link's flux-point frame (the same frame LiftFace
// consumes). Staging is a pure indexed write into the link's own slot, so
// the face hooks may run in any order — including overlapped with the
// ghost exchange — without perturbing the accumulation order Lift fixes.
func (w *Work) StageFace(li int32, comp int, g []float64) {
	copy(w.StagedFace(li, comp), g)
}

// StagedFace returns the staged flux slice of component comp of link li,
// valid until the next Apply.
func (w *Work) StagedFace(li int32, comp int) []float64 {
	m := w.m
	off := (int(li)*m.stageNC + comp) * m.Nf
	return m.stage[off : off+m.Nf]
}

// LiftFace accumulates the surface contribution of a link into the volume
// residual: dc[volume node] += MassInv * integral(g * phi) over the face
// piece the link covers. g holds the flux difference at the link's flux
// points: my face nodes for LinkEqual/LinkToCoarse, or the quadrant's fine
// points (my frame) for LinkToFineQuad, where the integral is assembled
// onto the coarse face basis through the weighted interpolation transpose.
//
// The lift writes only into the link's own element — the property the
// kernel driver's batching leans on: batches own disjoint element ranges,
// so concurrent lifts never touch the same node.
func (w *Work) LiftFace(l *FaceLink, g, dc []float64) {
	m := w.m
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	switch l.Kind {
	case LinkEqual, LinkToCoarse:
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				fn := i + np1*j
				vn := base + int(fidx[fn])
				dc[vn] += m.MassInv[vn] * m.L.W[i] * m.L.W[j] * g[fn]
			}
		}
	case LinkToFineQuad:
		// Integrated contribution to coarse face nodes: (1/4) * I^T W g per
		// axis, i.e. apply Pw[i][j] = 0.5*W[j]*I[j][i] in each direction.
		pwi, pwj := m.quadWeighted(l)
		gi := w.sB
		tensor2ApplyBuf(np1, pwi, pwj, g, gi, w.sC)
		for fn := 0; fn < m.Nf; fn++ {
			vn := base + int(fidx[fn])
			dc[vn] += m.MassInv[vn] * gi[fn]
		}
	default:
		panic("mangll: LiftFace on boundary link")
	}
}

// LiftFaceStrided is LiftFace for field arrays with nc interleaved
// components per node, accumulating into component comp of dc.
func (w *Work) LiftFaceStrided(l *FaceLink, nc, comp int, g, dc []float64) {
	m := w.m
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	switch l.Kind {
	case LinkEqual, LinkToCoarse, LinkBoundary:
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				fn := i + np1*j
				vn := base + int(fidx[fn])
				dc[vn*nc+comp] += m.MassInv[vn] * m.L.W[i] * m.L.W[j] * g[fn]
			}
		}
	case LinkToFineQuad:
		pwi, pwj := m.quadWeighted(l)
		gi := w.sB
		tensor2ApplyBuf(np1, pwi, pwj, g, gi, w.sC)
		for fn := 0; fn < m.Nf; fn++ {
			vn := base + int(fidx[fn])
			dc[vn*nc+comp] += m.MassInv[vn] * gi[fn]
		}
	}
}
