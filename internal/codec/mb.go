package codec

import (
	"encoding/binary"

	"repro/internal/video"
)

// Macroblock coding. Each macroblock is 16x16 luma (four 8x8 transform
// blocks) plus one 8x8 block in each half-resolution chroma plane. Intra
// macroblocks predict from a flat 128 level so that every macroblock — and
// therefore every slice the packetizer forms — is independently decodable;
// inter macroblocks carry an absolute motion vector and residual blocks
// against the previous reconstructed frame.

// loadBlock copies an 8x8 region of a plane into samples, offsetting by
// -bias (128 for intra, 0 for residual paths handled separately).
func loadBlock(plane []byte, stride, x0, y0 int, bias float64, samples *[64]float64) {
	for y := 0; y < blockSize; y++ {
		row := (y0+y)*stride + x0
		for x := 0; x < blockSize; x++ {
			samples[y*blockSize+x] = float64(plane[row+x]) - bias
		}
	}
}

// storeBlock writes reconstructed samples (plus bias) back to a plane.
func storeBlock(plane []byte, stride, x0, y0 int, bias float64, recon *[64]float64) {
	for y := 0; y < blockSize; y++ {
		row := (y0+y)*stride + x0
		for x := 0; x < blockSize; x++ {
			plane[row+x] = clampByte(recon[y*blockSize+x] + bias)
		}
	}
}

// decodeIntraMB reverses the intra macroblock coding of gatherIntraMB
// and emitMB.
func decodeIntraMB(r *bitReader, out *video.Frame, mx, my int, q float64) error {
	x0, y0 := mx*mbSize, my*mbSize
	var rec [64]float64
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			if err := decodeBlock(r, q, &rec); err != nil {
				return err
			}
			storeBlock(out.Y, out.W, x0+bx*blockSize, y0+by*blockSize, 128, &rec)
		}
	}
	cw := out.W / 2
	cx0, cy0 := x0/2, y0/2
	if err := decodeBlock(r, q*1.2, &rec); err != nil {
		return err
	}
	storeBlock(out.Cb, cw, cx0, cy0, 128, &rec)
	if err := decodeBlock(r, q*1.2, &rec); err != nil {
		return err
	}
	storeBlock(out.Cr, cw, cx0, cy0, 128, &rec)
	return nil
}

// maxInt is the largest int (used as a no-op SAD early-exit limit).
const maxInt = int(^uint(0) >> 1)

// sadMB computes the sum of absolute luma differences between the source
// macroblock at (x0, y0) and the reference block displaced by (dx, dy),
// clamping reference coordinates at the frame edge.
func sadMB(src, ref *video.Frame, x0, y0, dx, dy int) int {
	return sadMBLimit(src, ref, x0, y0, dx, dy, maxInt)
}

// sadMBLimit is sadMB with a row-granular early exit: once the partial sum
// reaches limit the (partial, >= limit) value is returned. Callers that
// compare with a strict `< best` see exactly the selections the full sum
// would give, because any bailed candidate already lost.
//
// Each row is summed eight pixels at a time by sadWord. A reference row
// that lies above or below the frame is the clamped edge row; only when
// the displaced block straddles the left or right edge are the row's
// sixteen reference pixels gathered one by one with clamping.
func sadMBLimit(src, ref *video.Frame, x0, y0, dx, dy, limit int) int {
	rx0, ry0 := x0+dx, y0+dy
	inside := rx0 >= 0 && rx0+mbSize <= ref.W
	var edge [mbSize]byte
	// lanes holds four 16-bit running sums. A lane gains at most 4*255
	// per row, so after 16 rows each lane is below 2^14 and the four
	// lanes together below 2^16: folding them with one multiply into the
	// top lane never carries out of it.
	var lanes uint64
	for y := 0; y < mbSize; y++ {
		so := (y0+y)*src.W + x0
		srow := src.Y[so : so+mbSize : so+mbSize]
		ro := min(max(ry0+y, 0), ref.H-1) * ref.W
		var rrow []byte
		if inside {
			rrow = ref.Y[ro+rx0 : ro+rx0+mbSize : ro+rx0+mbSize]
		} else {
			row := ref.Y[ro : ro+ref.W]
			for x := range edge {
				edge[x] = row[min(max(rx0+x, 0), ref.W-1)]
			}
			rrow = edge[:]
		}
		lanes += sadWord(binary.LittleEndian.Uint64(srow[:8]), binary.LittleEndian.Uint64(rrow[:8])) +
			sadWord(binary.LittleEndian.Uint64(srow[8:]), binary.LittleEndian.Uint64(rrow[8:]))
		if sad := int(lanes * swarOnes >> 48); sad >= limit {
			return sad
		}
	}
	return int(lanes * swarOnes >> 48)
}

// SWAR constants: the low byte of every 16-bit lane, a one in every
// lane, and 0x100 in every lane.
const (
	swarLow  = 0x00FF00FF00FF00FF
	swarOnes = 0x0001000100010001
	swarBias = 0x0100010001000100
)

// sadWord returns the absolute differences of the eight byte pairs of s
// and r, summed pairwise into four 16-bit lanes (each at most 2*255).
// The even and odd bytes are spread into 16-bit lanes and biased by
// 0x100, so (s|0x100) - r lies in [1, 511] and no lane borrows from its
// neighbour; bit 8 of the result is set exactly when s >= r. The low
// byte is then s-r, or 256-(r-s), whose 8-bit negation (x^0xFF)+1 is
// r-s, so the absolute value needs no per-pixel branch.
func sadWord(s, r uint64) uint64 {
	te := (s&swarLow | swarBias) - r&swarLow
	to := (s>>8&swarLow | swarBias) - r>>8&swarLow
	ne := te>>8&swarOnes ^ swarOnes // 1 where the even byte of s < r
	no := to>>8&swarOnes ^ swarOnes
	return (te&swarLow ^ ne*0xFF) + ne + (to&swarLow ^ no*0xFF) + no
}

// largeDiamond and smallDiamond are the classic DS motion-search patterns.
var largeDiamond = [][2]int{{0, -2}, {-1, -1}, {1, -1}, {-2, 0}, {2, 0}, {-1, 1}, {1, 1}, {0, 2}}
var smallDiamond = [][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}

// visitSet records which displacements one diamond search has scored.
// It is a grid of stamps over the largest window Validate allows; each
// search bumps the stamp instead of clearing the grid, so a test-and-mark
// is one load and one store, and nothing is allocated per search.
type visitSet struct {
	stamp uint16
	seen  [(2*maxSearchRange + 1) * (2*maxSearchRange + 1)]uint16
}

// reset starts a new search.
func (v *visitSet) reset() {
	v.stamp++
	if v.stamp == 0 {
		// Wrapped: stale stamps could now match, so clear them (once
		// every 65535 searches).
		clear(v.seen[:])
		v.stamp = 1
	}
}

// first marks (dx, dy), which must lie within ±maxSearchRange, and
// reports whether this search had not scored it yet.
func (v *visitSet) first(dx, dy int) bool {
	i := (dy+maxSearchRange)*(2*maxSearchRange+1) + dx + maxSearchRange
	if v.seen[i] == v.stamp {
		return false
	}
	v.seen[i] = v.stamp
	return true
}

// motionSearch finds an integer-pel motion vector for the macroblock.
// starts lists predictor candidates (neighbour and co-located vectors)
// seeded alongside (0,0); on textured content the SAD surface only has a
// basin near the true displacement, so good predictors are what make the
// diamond search competitive with full search.
//
// The diamond search scores each displacement at most once (seen):
// overlapping diamonds, repeated predictors and the final small diamond
// would otherwise re-score about one in six of the in-range points on
// CIF clips. A repeat can never be selected. best never increases, and
// a point scored earlier either lost (its SAD, or the partial sum it
// bailed at, was already >= the best of that moment, hence >= today's)
// or won (so today's best is <= its SAD); either way the strict
// `s < best` test fails again. Skipping it changes no vector.
func motionSearch(seen *visitSet, src, ref *video.Frame, x0, y0 int, cfg Config, starts [][2]int) (int, int) {
	r := cfg.SearchRange
	if r == 0 {
		return 0, 0
	}
	if cfg.FullSearch {
		bestDX, bestDY := 0, 0
		best := sadMB(src, ref, x0, y0, 0, 0)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if s := sadMBLimit(src, ref, x0, y0, dx, dy, best); s < best {
					best, bestDX, bestDY = s, dx, dy
				}
			}
		}
		return bestDX, bestDY
	}
	// Diamond search from the best candidate.
	seen.reset()
	seen.first(0, 0)
	cx, cy := 0, 0
	best := sadMB(src, ref, x0, y0, 0, 0)
	try := func(dx, dy int) bool {
		if dx < -r || dx > r || dy < -r || dy > r || !seen.first(dx, dy) {
			return false
		}
		if s := sadMBLimit(src, ref, x0, y0, dx, dy, best); s < best {
			best, cx, cy = s, dx, dy
			return true
		}
		return false
	}
	for _, st := range starts {
		try(st[0], st[1])
	}
	for improved := true; improved; {
		improved = false
		for _, d := range largeDiamond {
			// cx, cy move as soon as a point improves, and later points
			// of the same pass are taken around the new centre.
			if try(cx+d[0], cy+d[1]) {
				improved = true
			}
		}
	}
	for _, d := range smallDiamond {
		try(cx+d[0], cy+d[1])
	}
	return cx, cy
}

// loadResidual fills samples with source minus motion-compensated
// reference for one 8x8 block of a w x h plane (luma or chroma). Blocks
// whose displaced footprint lies fully inside the reference skip the
// per-pixel edge clamping of planeAt.
func loadResidual(src, ref []byte, w, h, x0, y0, dx, dy int, samples *[64]float64) {
	rx0, ry0 := x0+dx, y0+dy
	if rx0 >= 0 && ry0 >= 0 && rx0+blockSize <= w && ry0+blockSize <= h {
		for y := 0; y < blockSize; y++ {
			so := (y0+y)*w + x0
			ro := (ry0+y)*w + rx0
			srow := src[so : so+blockSize : so+blockSize]
			rrow := ref[ro : ro+blockSize : ro+blockSize]
			out := samples[y*blockSize : y*blockSize+blockSize : y*blockSize+blockSize]
			for x := range out {
				// One conversion of the exact integer difference.
				out[x] = float64(int(srow[x]) - int(rrow[x]))
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			s := float64(src[(y0+y)*w+x0+x])
			samples[y*blockSize+x] = s - planeAt(ref, w, h, x0+x+dx, y0+y+dy)
		}
	}
}

// storeCompensated writes prediction+residual into one 8x8 block of a
// w x h output plane, with the same interior fast path as loadResidual.
func storeCompensated(out, ref []byte, w, h, x0, y0, dx, dy int, rec *[64]float64) {
	rx0, ry0 := x0+dx, y0+dy
	if rx0 >= 0 && ry0 >= 0 && rx0+blockSize <= w && ry0+blockSize <= h {
		for y := 0; y < blockSize; y++ {
			oo := (y0+y)*w + x0
			ro := (ry0+y)*w + rx0
			orow := out[oo : oo+blockSize : oo+blockSize]
			rrow := ref[ro : ro+blockSize : ro+blockSize]
			res := rec[y*blockSize : y*blockSize+blockSize : y*blockSize+blockSize]
			for x := range orow {
				orow[x] = clampByte(float64(rrow[x]) + res[x])
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			p := planeAt(ref, w, h, x0+x+dx, y0+y+dy)
			out[(y0+y)*w+x0+x] = clampByte(p + rec[y*blockSize+x])
		}
	}
}

// planeAt reads a sample of a w x h plane, clamping the coordinates at
// the plane edge.
func planeAt(plane []byte, w, h, x, y int) float64 {
	return float64(plane[min(max(y, 0), h-1)*w+min(max(x, 0), w-1)])
}

// decodeInterMB reverses the inter macroblock coding of gatherInterMB
// and emitMB against the decoder's reference.
func decodeInterMB(r *bitReader, ref, out *video.Frame, mx, my int, cfg Config) error {
	x0, y0 := mx*mbSize, my*mbSize
	dx64, err := r.readSE()
	if err != nil {
		return err
	}
	dy64, err := r.readSE()
	if err != nil {
		return err
	}
	dx, dy := int(dx64), int(dy64)
	if dx < -64 || dx > 64 || dy < -64 || dy > 64 {
		return errCorrupt
	}
	if ref == nil {
		// P-frame with no reference (leading loss): decode residuals
		// against mid-grey so the stream stays in lockstep. Decode hoists
		// this to one pooled frame per frame; the fallback covers direct
		// callers.
		grey := getGreyFrame(out.W, out.H)
		defer putFrame(grey)
		ref = grey
	}
	var rec [64]float64
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			if err := decodeBlock(r, cfg.QP, &rec); err != nil {
				return err
			}
			storeCompensated(out.Y, ref.Y, out.W, out.H, x0+bx*blockSize, y0+by*blockSize, dx, dy, &rec)
		}
	}
	cw, ch := out.W/2, out.H/2
	for plane := 0; plane < 2; plane++ {
		rp, op := ref.Cb, out.Cb
		if plane == 1 {
			rp, op = ref.Cr, out.Cr
		}
		if err := decodeBlock(r, cfg.QP*1.2, &rec); err != nil {
			return err
		}
		// Chroma moves by the halved vector.
		storeCompensated(op, rp, cw, ch, x0/2, y0/2, dx/2, dy/2, &rec)
	}
	return nil
}
