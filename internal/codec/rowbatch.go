package codec

import (
	"sync"

	"repro/internal/video"
)

// Batched row coding. A macroblock row is coded in three phases instead
// of one pass per macroblock:
//
//	A. gather    — per macroblock, in wavefront order: motion search
//	               (P-frames) and sample/residual loading into a
//	               row-sized arena. This is the only phase that touches
//	               the cross-row motion-vector predictors, so the
//	               wavefront tokens move here and rows below can start
//	               correspondingly earlier.
//	B. transform — DCT + quantisation for every block of the row in one
//	               tight batch (better locality and branch behaviour
//	               than interleaving float kernels with entropy coding).
//	C. emit      — entropy-code each macroblock's quantised blocks and
//	               write its reconstruction.
//
// Phases B and C call the same quantiseBlock/entropyCodeBlock halves
// that encodeBlock is built from, and phase C writes bits in exactly the
// order the per-macroblock coder would (kept in rowbatch_test.go as the
// reference), so the bitstream is bit-identical to it (pinned by
// TestBatchedRowMatchesPerMB). Batching is safe because nothing in
// phases B/C feeds back into phase A within a row: intra blocks predict
// from flat 128 and inter blocks from the previous frame's
// reconstruction, never from the current row's output.

// blocksPerMB is the number of 8x8 transform blocks per macroblock:
// four luma plus Cb and Cr.
const blocksPerMB = 6

// rowBatch is the pooled arena of one row's batched coding state.
type rowBatch struct {
	samples [][64]float64
	quant   [][64]int32
	nonzero []int
}

var rowBatchPool = sync.Pool{New: func() interface{} { return new(rowBatch) }}

func (b *rowBatch) resize(n int) {
	if cap(b.samples) < n {
		b.samples = make([][64]float64, n)
		b.quant = make([][64]int32, n)
		b.nonzero = make([]int, n)
		return
	}
	b.samples = b.samples[:n]
	b.quant = b.quant[:n]
	b.nonzero = b.nonzero[:n]
}

// gatherIntraMB loads the six centred sample blocks of one intra
// macroblock into the row batch (phase A).
func gatherIntraMB(b *rowBatch, src *video.Frame, mx, my int) {
	base := mx * blocksPerMB
	x0, y0 := mx*mbSize, my*mbSize
	i := base
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			loadBlock(src.Y, src.W, x0+bx*blockSize, y0+by*blockSize, 128, &b.samples[i])
			i++
		}
	}
	cw := src.W / 2
	cx0, cy0 := x0/2, y0/2
	loadBlock(src.Cb, cw, cx0, cy0, 128, &b.samples[base+4])
	loadBlock(src.Cr, cw, cx0, cy0, 128, &b.samples[base+5])
}

// gatherInterMB loads the six residual blocks of one inter macroblock for
// its chosen motion vector into the row batch (phase A).
func gatherInterMB(b *rowBatch, src, ref *video.Frame, mx, my, dx, dy int) {
	base := mx * blocksPerMB
	x0, y0 := mx*mbSize, my*mbSize
	i := base
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			loadResidual(src.Y, ref.Y, src.W, src.H, x0+bx*blockSize, y0+by*blockSize, dx, dy, &b.samples[i])
			i++
		}
	}
	// Chroma residuals with halved motion.
	cw, ch := src.W/2, src.H/2
	loadResidual(src.Cb, ref.Cb, cw, ch, x0/2, y0/2, dx/2, dy/2, &b.samples[base+4])
	loadResidual(src.Cr, ref.Cr, cw, ch, x0/2, y0/2, dx/2, dy/2, &b.samples[base+5])
}

// emitMB entropy-codes one macroblock from the quantised row batch and
// writes its reconstruction (phase C). The bit order — motion vector
// (inter only), four luma blocks, Cb, Cr — matches the per-macroblock
// reference coder exactly.
func emitMB(b *rowBatch, sc *mbScratch, src, ref, recon *video.Frame, mvs [][2]int, ft FrameType, mx, my, cols int, qL, qC float64) {
	base := mx * blocksPerMB
	x0, y0 := mx*mbSize, my*mbSize
	var dx, dy int
	if ft != IFrame {
		v := mvs[my*cols+mx]
		dx, dy = v[0], v[1]
		sc.w.writeSE(int64(dx))
		sc.w.writeSE(int64(dy))
	}
	i := base
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			bx0, by0 := x0+bx*blockSize, y0+by*blockSize
			entropyCodeBlock(&sc.w, &b.quant[i], b.nonzero[i], qL, &sc.rec)
			if ft == IFrame {
				storeBlock(recon.Y, recon.W, bx0, by0, 128, &sc.rec)
			} else {
				storeCompensated(recon.Y, ref.Y, recon.W, recon.H, bx0, by0, dx, dy, &sc.rec)
			}
			i++
		}
	}
	cw, ch := src.W/2, src.H/2
	cx0, cy0 := x0/2, y0/2
	for plane := 0; plane < 2; plane++ {
		entropyCodeBlock(&sc.w, &b.quant[base+4+plane], b.nonzero[base+4+plane], qC, &sc.rec)
		if ft == IFrame {
			p := recon.Cb
			if plane == 1 {
				p = recon.Cr
			}
			storeBlock(p, cw, cx0, cy0, 128, &sc.rec)
			continue
		}
		rp, op := ref.Cb, recon.Cb
		if plane == 1 {
			rp, op = ref.Cr, recon.Cr
		}
		storeCompensated(op, rp, cw, ch, cx0, cy0, dx/2, dy/2, &sc.rec)
	}
}
