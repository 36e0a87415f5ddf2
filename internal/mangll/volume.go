package mangll

// Tensor-product volume kernels: the reference-direction derivatives of
// one element's nodal values, D_a u, in the two fused forms the dG
// frontends need — all three derivatives of one field (Gradient), and the
// sum of the derivatives of three fields (Divergence).
//
// Summation-order contract. Every derivative value is the ascending-q sum
// s = ((0 + D[i][0] u_0) + D[i][1] u_1) + ... over the node's 1D line, and
// a Divergence node is ((0 + s_0) + s_1) + s_2. Both bodies below honour
// it exactly, so the register-blocked N=3 body is bitwise equal to the
// generic one (signed zeros included), and swapping them leaves every
// bitwise pin of the solvers — blocking ≡ overlap ≡ pooled ≡ any rank
// count ≡ any transport — unchanged.
//
// Nodes are ordered i + Np1*(j + Np1*k), so direction-0 lines are
// contiguous, direction-1 lines have stride Np1 and direction-2 lines
// stride Np1^2.

// Gradient writes the three reference-direction derivatives of one
// element's nodal values u: g0 = D_0 u, g1 = D_1 u, g2 = D_2 u. None of the
// outputs may alias u.
func (w *Work) Gradient(u, g0, g1, g2 []float64) {
	gradient(w.m.Np1, w.m.L.DF, u, g0, g1, g2)
}

// Divergence writes out = D_0 f0 + D_1 f1 + D_2 f2 for one element, summed
// per node in the order ((0 + D_0 f0) + D_1 f1) + D_2 f2. out may not
// alias any input.
func (w *Work) Divergence(f0, f1, f2, out []float64) {
	divergence(w.m.Np1, w.m.L.DF, f0, f1, f2, out)
}

func gradient(np1 int, d, u, g0, g1, g2 []float64) {
	if np1 == 4 {
		gradient4(d, u, g0, g1, g2)
		return
	}
	applyDN(np1, d, 0, u, g0, false)
	applyDN(np1, d, 1, u, g1, false)
	applyDN(np1, d, 2, u, g2, false)
}

func divergence(np1 int, d, f0, f1, f2, out []float64) {
	if np1 == 4 {
		divergence4(d, f0, f1, f2, out)
		return
	}
	clear(out[:np1*np1*np1])
	applyDN(np1, d, 0, f0, out, true)
	applyDN(np1, d, 1, f1, out, true)
	applyDN(np1, d, 2, f2, out, true)
}

// applyDN is the generic body: out = D_a u, or out += D_a u when add is
// set, for any degree.
func applyDN(np1 int, d []float64, a int, u, out []float64, add bool) {
	nf := np1 * np1
	switch a {
	case 0:
		for row := 0; row < nf*np1; row += np1 {
			for i := 0; i < np1; i++ {
				di := d[i*np1 : i*np1+np1]
				var s float64
				for q := 0; q < np1; q++ {
					s += di[q] * u[row+q]
				}
				if add {
					out[row+i] += s
				} else {
					out[row+i] = s
				}
			}
		}
	case 1:
		for k := 0; k < np1; k++ {
			for i := 0; i < np1; i++ {
				col := i + nf*k
				for j := 0; j < np1; j++ {
					di := d[j*np1 : j*np1+np1]
					var s float64
					for q := 0; q < np1; q++ {
						s += di[q] * u[col+q*np1]
					}
					if add {
						out[col+j*np1] += s
					} else {
						out[col+j*np1] = s
					}
				}
			}
		}
	default:
		for col := 0; col < nf; col++ {
			for k := 0; k < np1; k++ {
				di := d[k*np1 : k*np1+np1]
				var s float64
				for q := 0; q < np1; q++ {
					s += di[q] * u[col+q*nf]
				}
				if add {
					out[col+k*nf] += s
				} else {
					out[col+k*nf] = s
				}
			}
		}
	}
}

// gradient4 is Gradient's register-blocked body for N=3: the 16 entries
// of D live in locals and each 4-node line is differentiated fully
// unrolled. The leading 0 of every sum is the signed-zero normalization
// of the generic body's `var s float64; s += ...`.
func gradient4(d, u, g0, g1, g2 []float64) {
	D := (*[16]float64)(d)
	U := (*[64]float64)(u)
	G0 := (*[64]float64)(g0)
	G1 := (*[64]float64)(g1)
	G2 := (*[64]float64)(g2)
	d00, d01, d02, d03 := D[0], D[1], D[2], D[3]
	d10, d11, d12, d13 := D[4], D[5], D[6], D[7]
	d20, d21, d22, d23 := D[8], D[9], D[10], D[11]
	d30, d31, d32, d33 := D[12], D[13], D[14], D[15]
	for r := 0; r < 16; r++ {
		x := (*[4]float64)(U[4*r:])
		y := (*[4]float64)(G0[4*r:])
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		y[0] = 0 + d00*x0 + d01*x1 + d02*x2 + d03*x3
		y[1] = 0 + d10*x0 + d11*x1 + d12*x2 + d13*x3
		y[2] = 0 + d20*x0 + d21*x1 + d22*x2 + d23*x3
		y[3] = 0 + d30*x0 + d31*x1 + d32*x2 + d33*x3
	}
	for k := 0; k < 4; k++ {
		x := (*[16]float64)(U[16*k:])
		y := (*[16]float64)(G1[16*k:])
		for i := 0; i < 4; i++ {
			x0, x1, x2, x3 := x[i], x[i+4], x[i+8], x[i+12]
			y[i] = 0 + d00*x0 + d01*x1 + d02*x2 + d03*x3
			y[i+4] = 0 + d10*x0 + d11*x1 + d12*x2 + d13*x3
			y[i+8] = 0 + d20*x0 + d21*x1 + d22*x2 + d23*x3
			y[i+12] = 0 + d30*x0 + d31*x1 + d32*x2 + d33*x3
		}
	}
	for n := 0; n < 16; n++ {
		x0, x1, x2, x3 := U[n], U[n+16], U[n+32], U[n+48]
		G2[n] = 0 + d00*x0 + d01*x1 + d02*x2 + d03*x3
		G2[n+16] = 0 + d10*x0 + d11*x1 + d12*x2 + d13*x3
		G2[n+32] = 0 + d20*x0 + d21*x1 + d22*x2 + d23*x3
		G2[n+48] = 0 + d30*x0 + d31*x1 + d32*x2 + d33*x3
	}
}

// divergence4 is Divergence's register-blocked body for N=3, one pass per
// direction accumulating into out. The per-direction sums drop the
// generic body's leading 0: the 0 that opens ((0 + s_0) + s_1) + s_2
// already maps a -0 from any direction to +0, so the node values are
// bitwise the same.
func divergence4(d, f0, f1, f2, out []float64) {
	D := (*[16]float64)(d)
	F0 := (*[64]float64)(f0)
	F1 := (*[64]float64)(f1)
	F2 := (*[64]float64)(f2)
	O := (*[64]float64)(out)
	d00, d01, d02, d03 := D[0], D[1], D[2], D[3]
	d10, d11, d12, d13 := D[4], D[5], D[6], D[7]
	d20, d21, d22, d23 := D[8], D[9], D[10], D[11]
	d30, d31, d32, d33 := D[12], D[13], D[14], D[15]
	for r := 0; r < 16; r++ {
		x := (*[4]float64)(F0[4*r:])
		y := (*[4]float64)(O[4*r:])
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		y[0] = 0 + (d00*x0 + d01*x1 + d02*x2 + d03*x3)
		y[1] = 0 + (d10*x0 + d11*x1 + d12*x2 + d13*x3)
		y[2] = 0 + (d20*x0 + d21*x1 + d22*x2 + d23*x3)
		y[3] = 0 + (d30*x0 + d31*x1 + d32*x2 + d33*x3)
	}
	for k := 0; k < 4; k++ {
		x := (*[16]float64)(F1[16*k:])
		y := (*[16]float64)(O[16*k:])
		for i := 0; i < 4; i++ {
			x0, x1, x2, x3 := x[i], x[i+4], x[i+8], x[i+12]
			y[i] += d00*x0 + d01*x1 + d02*x2 + d03*x3
			y[i+4] += d10*x0 + d11*x1 + d12*x2 + d13*x3
			y[i+8] += d20*x0 + d21*x1 + d22*x2 + d23*x3
			y[i+12] += d30*x0 + d31*x1 + d32*x2 + d33*x3
		}
	}
	for n := 0; n < 16; n++ {
		x0, x1, x2, x3 := F2[n], F2[n+16], F2[n+32], F2[n+48]
		O[n] += d00*x0 + d01*x1 + d02*x2 + d03*x3
		O[n+16] += d10*x0 + d11*x1 + d12*x2 + d13*x3
		O[n+32] += d20*x0 + d21*x1 + d22*x2 + d23*x3
		O[n+48] += d30*x0 + d31*x1 + d32*x2 + d33*x3
	}
}
