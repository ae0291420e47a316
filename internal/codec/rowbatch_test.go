package codec

import (
	"fmt"
	"testing"

	"repro/internal/video"
)

// encodeIntraMB codes one intra macroblock and writes its
// reconstruction: the per-macroblock reference for gatherIntraMB and
// emitMB.
func encodeIntraMB(sc *mbScratch, src, recon *video.Frame, mx, my int, q float64) {
	w, samples, rec := &sc.w, &sc.samples, &sc.rec
	x0, y0 := mx*mbSize, my*mbSize
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			loadBlock(src.Y, src.W, x0+bx*blockSize, y0+by*blockSize, 128, samples)
			encodeBlock(w, samples, q, rec)
			storeBlock(recon.Y, recon.W, x0+bx*blockSize, y0+by*blockSize, 128, rec)
		}
	}
	cw := src.W / 2
	cx0, cy0 := x0/2, y0/2
	loadBlock(src.Cb, cw, cx0, cy0, 128, samples)
	encodeBlock(w, samples, q*1.2, rec)
	storeBlock(recon.Cb, cw, cx0, cy0, 128, rec)
	loadBlock(src.Cr, cw, cx0, cy0, 128, samples)
	encodeBlock(w, samples, q*1.2, rec)
	storeBlock(recon.Cr, cw, cx0, cy0, 128, rec)
}

// encodeInterMB codes one predicted macroblock — motion vector plus
// residual blocks for luma and chroma — and returns the chosen vector:
// the per-macroblock reference for motion search, gatherInterMB and
// emitMB.
func encodeInterMB(sc *mbScratch, src, ref, recon *video.Frame, mx, my int, cfg Config, starts [][2]int) (int, int) {
	w, samples, rec := &sc.w, &sc.samples, &sc.rec
	x0, y0 := mx*mbSize, my*mbSize
	dx, dy := motionSearch(&sc.seen, src, ref, x0, y0, cfg, starts)
	w.writeSE(int64(dx))
	w.writeSE(int64(dy))
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			bx0, by0 := x0+bx*blockSize, y0+by*blockSize
			loadResidual(src.Y, ref.Y, src.W, src.H, bx0, by0, dx, dy, samples)
			encodeBlock(w, samples, cfg.QP, rec)
			storeCompensated(recon.Y, ref.Y, src.W, src.H, bx0, by0, dx, dy, rec)
		}
	}
	// Chroma residuals with halved motion.
	cw, ch := src.W/2, src.H/2
	for plane := 0; plane < 2; plane++ {
		sp, rp, op := src.Cb, ref.Cb, recon.Cb
		if plane == 1 {
			sp, rp, op = src.Cr, ref.Cr, recon.Cr
		}
		loadResidual(sp, rp, cw, ch, x0/2, y0/2, dx/2, dy/2, samples)
		encodeBlock(w, samples, cfg.QP*1.2, rec)
		storeCompensated(op, rp, cw, ch, x0/2, y0/2, dx/2, dy/2, rec)
	}
	return dx, dy
}

// perMBEncode replicates the pre-batching encode path — one full
// macroblock coded at a time via encodeIntraMB/encodeInterMB — with the
// same state evolution (reference chain, MV predictor seeding) as
// Encoder.Encode. It is the reference the batched row coder is pinned
// against.
func perMBEncode(e *Encoder, f *video.Frame) (*EncodedFrame, error) {
	ft := PFrame
	if e.count%e.cfg.GOPSize == 0 || e.ref == nil {
		ft = IFrame
	}
	recon := video.NewFrame(f.W, f.H)
	cols, rows := e.cfg.MBCols(), e.cfg.MBRows()
	out := &EncodedFrame{Number: e.count, Type: ft, MBData: make([][]byte, cols*rows)}
	mvs := make([][2]int, cols*rows)
	sc := getScratch()
	for my := 0; my < rows; my++ {
		var arena []byte
		for mx := 0; mx < cols; mx++ {
			sc.w.reset()
			if ft == IFrame {
				encodeIntraMB(sc, f, recon, mx, my, e.cfg.QI)
			} else {
				starts := sc.starts[:0]
				if mx > 0 {
					starts = append(starts, mvs[my*cols+mx-1])
				}
				if my > 0 {
					starts = append(starts, mvs[(my-1)*cols+mx])
				}
				if e.prevMVs != nil {
					starts = append(starts, e.prevMVs[my*cols+mx])
				}
				dx, dy := encodeInterMB(sc, f, e.ref, recon, mx, my, e.cfg, starts)
				mvs[my*cols+mx] = [2]int{dx, dy}
			}
			chunk := sc.w.bytes()
			start := len(arena)
			arena = append(arena, chunk...)
			out.MBData[my*cols+mx] = arena[start:len(arena):len(arena)]
		}
	}
	putScratch(sc)
	if ft == PFrame {
		e.prevMVs = mvs
	} else {
		e.prevMVs = nil
	}
	e.ref = recon
	e.count++
	return out, nil
}

// TestBatchedRowMatchesPerMB pins the three-phase batched row coder
// bit-identical to the per-macroblock reference across I and P frames,
// motion levels, and both motion estimators.
func TestBatchedRowMatchesPerMB(t *testing.T) {
	for _, motion := range []video.MotionLevel{video.MotionLow, video.MotionHigh} {
		for _, full := range []bool{false, true} {
			clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 10, Motion: motion, Seed: 47})
			cfg := smallConfig(4)
			cfg.FullSearch = full
			batched, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range clip {
				a, err := batched.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				b, err := perMBEncode(ref, f)
				if err != nil {
					t.Fatal(err)
				}
				encodedEqual(t, []*EncodedFrame{a}, []*EncodedFrame{b},
					fmt.Sprintf("motion=%v full=%v frame %d", motion, full, i))
			}
		}
	}
}
