package codec

import "math"

// blockSize is the transform block size (8x8, as in MPEG-2/4 and the
// classic JPEG pipeline).
const blockSize = 8

// The 2-D orthonormal DCT-II is computed with the Arai-Agui-Nakajima
// (AAN) factorization: a 1-D scaled butterfly per row and per column (5
// multiplies and 29 adds each, against 64 multiplies for the naive inner
// product) followed by one 64-multiply scaling pass that folds the AAN
// scale factors and the orthonormal normalisation together. The inverse
// runs the mirrored flow graph with the scaling applied up front.
//
// aanScale[k] is the factor by which the k-th output of the scaled
// forward butterfly exceeds the JPEG-convention coefficient:
// 1 for k = 0 and sqrt(2)*cos(k*pi/16) otherwise. The JPEG convention
// coincides with the orthonormal one for an 8-point transform, so the
// combined 2-D correction is 1/(8*s[u]*s[v]).
var (
	fdctScale [64]float64 // multiply after the forward butterflies
	idctScale [64]float64 // multiply before the inverse butterflies
	// invQuantRamp[zz] = 1/(1+zz/16): the reciprocal of the frequency
	// ramp, so forward quantisation is two multiplies instead of a
	// division in the per-coefficient hot loop.
	invQuantRamp [64]float64
)

func init() {
	var s [blockSize]float64
	s[0] = 1
	for k := 1; k < blockSize; k++ {
		s[k] = math.Sqrt2 * math.Cos(float64(k)*math.Pi/16)
	}
	for u := 0; u < blockSize; u++ {
		for v := 0; v < blockSize; v++ {
			fdctScale[u*blockSize+v] = 1 / (8 * s[u] * s[v])
			idctScale[u*blockSize+v] = s[u] * s[v] / 8
		}
	}
	for zz := 0; zz < 64; zz++ {
		invQuantRamp[zz] = 1 / (1 + float64(zz)/16)
	}
}

// AAN butterfly constants.
const (
	aanC4  = 0.7071067811865476 // cos(4*pi/16) = sqrt(1/2)
	aanC6  = 0.3826834323650898 // cos(6*pi/16)
	aanQ   = 0.5411961001461969 // cos(6*pi/16) * sqrt(2)
	aanR   = 1.3065629648763766 // cos(2*pi/16) * sqrt(2)
	aanI2  = 1.4142135623730951 // sqrt(2)
	aanI5  = 1.8477590650225735 // 2*cos(2*pi/16)
	aanI10 = 1.0823922002923938 // 2*cos(6*pi/16)
	aanI12 = -2.613125929752753 // -(2*cos(2*pi/16) + 2*cos(6*pi/16))
)

// fdct8 computes the 2-D orthonormal DCT-II of an 8x8 block (row-major
// in/out) with the AAN factorization.
func fdct8(in *[64]float64, out *[64]float64) {
	var tmp [64]float64
	// Row pass.
	for i := 0; i < 64; i += blockSize {
		d0, d1, d2, d3 := in[i], in[i+1], in[i+2], in[i+3]
		d4, d5, d6, d7 := in[i+4], in[i+5], in[i+6], in[i+7]

		t0, t7 := d0+d7, d0-d7
		t1, t6 := d1+d6, d1-d6
		t2, t5 := d2+d5, d2-d5
		t3, t4 := d3+d4, d3-d4

		t10, t13 := t0+t3, t0-t3
		t11, t12 := t1+t2, t1-t2
		tmp[i] = t10 + t11
		tmp[i+4] = t10 - t11
		z1 := (t12 + t13) * aanC4
		tmp[i+2] = t13 + z1
		tmp[i+6] = t13 - z1

		t10 = t4 + t5
		t11 = t5 + t6
		t12 = t6 + t7
		z5 := (t10 - t12) * aanC6
		z2 := aanQ*t10 + z5
		z4 := aanR*t12 + z5
		z3 := t11 * aanC4
		z11, z13 := t7+z3, t7-z3
		tmp[i+5] = z13 + z2
		tmp[i+3] = z13 - z2
		tmp[i+1] = z11 + z4
		tmp[i+7] = z11 - z4
	}
	// Column pass, scaling on the way out.
	for c := 0; c < blockSize; c++ {
		d0, d1, d2, d3 := tmp[c], tmp[c+8], tmp[c+16], tmp[c+24]
		d4, d5, d6, d7 := tmp[c+32], tmp[c+40], tmp[c+48], tmp[c+56]

		t0, t7 := d0+d7, d0-d7
		t1, t6 := d1+d6, d1-d6
		t2, t5 := d2+d5, d2-d5
		t3, t4 := d3+d4, d3-d4

		t10, t13 := t0+t3, t0-t3
		t11, t12 := t1+t2, t1-t2
		out[c] = (t10 + t11) * fdctScale[c]
		out[c+32] = (t10 - t11) * fdctScale[c+32]
		z1 := (t12 + t13) * aanC4
		out[c+16] = (t13 + z1) * fdctScale[c+16]
		out[c+48] = (t13 - z1) * fdctScale[c+48]

		t10 = t4 + t5
		t11 = t5 + t6
		t12 = t6 + t7
		z5 := (t10 - t12) * aanC6
		z2 := aanQ*t10 + z5
		z4 := aanR*t12 + z5
		z3 := t11 * aanC4
		z11, z13 := t7+z3, t7-z3
		out[c+40] = (z13 + z2) * fdctScale[c+40]
		out[c+24] = (z13 - z2) * fdctScale[c+24]
		out[c+8] = (z11 + z4) * fdctScale[c+8]
		out[c+56] = (z11 - z4) * fdctScale[c+56]
	}
}

// idct8 computes the inverse 2-D DCT with the mirrored AAN flow graph.
func idct8(in *[64]float64, out *[64]float64) {
	var tmp [64]float64
	// Column pass, scaling on the way in.
	for c := 0; c < blockSize; c++ {
		d0 := in[c] * idctScale[c]
		d1 := in[c+8] * idctScale[c+8]
		d2 := in[c+16] * idctScale[c+16]
		d3 := in[c+24] * idctScale[c+24]
		d4 := in[c+32] * idctScale[c+32]
		d5 := in[c+40] * idctScale[c+40]
		d6 := in[c+48] * idctScale[c+48]
		d7 := in[c+56] * idctScale[c+56]

		t10, t11 := d0+d4, d0-d4
		t13 := d2 + d6
		t12 := (d2-d6)*aanI2 - t13
		t0, t3 := t10+t13, t10-t13
		t1, t2 := t11+t12, t11-t12

		z13, z10 := d5+d3, d5-d3
		z11, z12 := d1+d7, d1-d7
		t7 := z11 + z13
		tt11 := (z11 - z13) * aanI2
		z5 := (z10 + z12) * aanI5
		tt10 := aanI10*z12 - z5
		tt12 := aanI12*z10 + z5
		t6 := tt12 - t7
		t5 := tt11 - t6
		t4 := tt10 + t5

		tmp[c] = t0 + t7
		tmp[c+56] = t0 - t7
		tmp[c+8] = t1 + t6
		tmp[c+48] = t1 - t6
		tmp[c+16] = t2 + t5
		tmp[c+40] = t2 - t5
		tmp[c+32] = t3 + t4
		tmp[c+24] = t3 - t4
	}
	// Row pass.
	for i := 0; i < 64; i += blockSize {
		d0, d1, d2, d3 := tmp[i], tmp[i+1], tmp[i+2], tmp[i+3]
		d4, d5, d6, d7 := tmp[i+4], tmp[i+5], tmp[i+6], tmp[i+7]

		t10, t11 := d0+d4, d0-d4
		t13 := d2 + d6
		t12 := (d2-d6)*aanI2 - t13
		t0, t3 := t10+t13, t10-t13
		t1, t2 := t11+t12, t11-t12

		z13, z10 := d5+d3, d5-d3
		z11, z12 := d1+d7, d1-d7
		t7 := z11 + z13
		tt11 := (z11 - z13) * aanI2
		z5 := (z10 + z12) * aanI5
		tt10 := aanI10*z12 - z5
		tt12 := aanI12*z10 + z5
		t6 := tt12 - t7
		t5 := tt11 - t6
		t4 := tt10 + t5

		out[i] = t0 + t7
		out[i+7] = t0 - t7
		out[i+1] = t1 + t6
		out[i+6] = t1 - t6
		out[i+2] = t2 + t5
		out[i+5] = t2 - t5
		out[i+4] = t3 + t4
		out[i+3] = t3 - t4
	}
}

// zigzag maps coefficient index 0..63 to the raster position within the
// block, ordering coefficients from low to high frequency.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// quantStep returns the quantisation step for zig-zag position zz under
// base step q: a mild frequency ramp that spends bits on low frequencies,
// like the default MPEG intra matrix.
func quantStep(q float64, zz int) float64 {
	return q * (1 + float64(zz)/16)
}
