package codec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/video"
)

// Scalar references for the word-at-a-time and branch-free encoder
// kernels. They are the kernels as first written, kept here so every
// rewrite is checked against them rather than against itself.

// sadMBScalar is the per-pixel sadMBLimit.
func sadMBScalar(src, ref *video.Frame, x0, y0, dx, dy, limit int) int {
	var sad int
	for y := 0; y < mbSize; y++ {
		sy := y0 + y
		for x := 0; x < mbSize; x++ {
			d := int(src.Y[sy*src.W+x0+x]) - int(ref.LumaAt(x0+x+dx, sy+dy))
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// quantiseCoeffsBranchy is quantiseCoeffs with a sign branch in the
// rounding.
func quantiseCoeffsBranchy(coeff *[64]float64, q float64, quant *[64]int32) int {
	nonzero := -1
	invQ := 1 / q
	for zz := 0; zz < 64; zz++ {
		v := coeff[zigzag[zz]] * invQ * invQuantRamp[zz]
		var iv int32
		if v >= 0 {
			iv = int32(v + 0.5)
		} else {
			iv = int32(v - 0.5)
		}
		quant[zz] = iv
		if iv != 0 {
			nonzero = zz
		}
	}
	return nonzero
}

// motionSearchRescoring is motionSearch without the record of scored
// displacements: every diamond point is scored, repeats included.
func motionSearchRescoring(src, ref *video.Frame, x0, y0 int, cfg Config, starts [][2]int) (int, int) {
	r := cfg.SearchRange
	inRange := func(dx, dy int) bool { return dx >= -r && dx <= r && dy >= -r && dy <= r }
	cx, cy := 0, 0
	best := sadMB(src, ref, x0, y0, 0, 0)
	for _, st := range starts {
		dx, dy := st[0], st[1]
		if (dx == 0 && dy == 0) || !inRange(dx, dy) {
			continue
		}
		if s := sadMBLimit(src, ref, x0, y0, dx, dy, best); s < best {
			best, cx, cy = s, dx, dy
		}
	}
	for {
		improved := false
		for _, d := range largeDiamond {
			dx, dy := cx+d[0], cy+d[1]
			if !inRange(dx, dy) {
				continue
			}
			if s := sadMBLimit(src, ref, x0, y0, dx, dy, best); s < best {
				best, cx, cy, improved = s, dx, dy, true
			}
		}
		if !improved {
			break
		}
	}
	for _, d := range smallDiamond {
		dx, dy := cx+d[0], cy+d[1]
		if !inRange(dx, dy) {
			continue
		}
		if s := sadMBLimit(src, ref, x0, y0, dx, dy, best); s < best {
			best, cx, cy = s, dx, dy
		}
	}
	return cx, cy
}

// randomFrame returns a w x h frame whose luma is uniform noise.
func randomFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	rng.Read(f.Y)
	return f
}

// filledFrame returns a w x h frame whose luma is all v.
func filledFrame(w, h int, v byte) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Y {
		f.Y[i] = v
	}
	return f
}

// checkSADAllLimits compares sadMBLimit with the scalar reference at one
// displacement under no limit and under limits on both sides of every
// row's partial sum, so every row-granular exit is taken.
func checkSADAllLimits(t *testing.T, src, ref *video.Frame, x0, y0, dx, dy int) {
	t.Helper()
	full := sadMBScalar(src, ref, x0, y0, dx, dy, maxInt)
	if got := sadMBLimit(src, ref, x0, y0, dx, dy, maxInt); got != full {
		t.Fatalf("(%d,%d)+(%d,%d): SAD %d, scalar %d", x0, y0, dx, dy, got, full)
	}
	limits := []int{math.MinInt, -1, 0, 1, full, full + 1}
	var part int // the partial sum after row y
	for y := 0; y < mbSize; y++ {
		for x := 0; x < mbSize; x++ {
			d := int(src.Y[(y0+y)*src.W+x0+x]) - int(ref.LumaAt(x0+x+dx, y0+y+dy))
			part += max(d, -d)
		}
		limits = append(limits, part-1, part, part+1)
	}
	for _, lim := range limits {
		want := sadMBScalar(src, ref, x0, y0, dx, dy, lim)
		if got := sadMBLimit(src, ref, x0, y0, dx, dy, lim); got != want {
			t.Fatalf("(%d,%d)+(%d,%d) limit %d: SAD %d, scalar %d", x0, y0, dx, dy, lim, got, want)
		}
	}
}

func TestSADMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const w, h = 64, 48
	for trial := 0; trial < 2; trial++ {
		src, ref := randomFrame(rng, w, h), randomFrame(rng, w, h)
		for y0 := 0; y0 < h; y0 += mbSize {
			for x0 := 0; x0 < w; x0 += mbSize {
				// Interior and edge displacements, out to beyond the frame.
				for dy := -20; dy <= 20; dy += 3 {
					for dx := -20; dx <= 20; dx += 3 {
						checkSADAllLimits(t, src, ref, x0, y0, dx, dy)
					}
				}
			}
		}
	}
}

func TestSADExtremes(t *testing.T) {
	const w, h = 48, 48
	black, white := filledFrame(w, h, 0), filledFrame(w, h, 255)
	checker := video.NewFrame(w, h)
	for i := range checker.Y {
		checker.Y[i] = byte(255 * ((i + i/w) % 2))
	}
	for _, c := range []struct {
		name     string
		src, ref *video.Frame
	}{
		{"0-vs-255", black, white},
		{"255-vs-0", white, black},
		{"255-vs-255", white, white},
		{"checker-vs-0", checker, black},
		{"255-vs-checker", white, checker},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {-16, -16}, {16, 16}, {-3, 7}} {
				checkSADAllLimits(t, c.src, c.ref, 16, 16, d[0], d[1])
			}
		})
	}
	// Every lane saturates: 256 pixels at 255 is the largest SAD.
	if got := sadMB(black, white, 16, 16, 0, 0); got != mbSize*mbSize*255 {
		t.Fatalf("max SAD %d, want %d", got, mbSize*mbSize*255)
	}
}

func TestSADWordLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10000; i++ {
		s, r := rng.Uint64(), rng.Uint64()
		switch i {
		case 0:
			s, r = 0, math.MaxUint64
		case 1:
			s, r = math.MaxUint64, 0
		}
		var want uint64
		for b := 0; b < 8; b++ {
			d := int(s>>(8*b)&0xFF) - int(r>>(8*b)&0xFF)
			want += uint64(max(d, -d))
		}
		lanes := sadWord(s, r)
		if got := lanes * swarOnes >> 48; got != want {
			t.Fatalf("sadWord(%#x, %#x) folds to %d, want %d", s, r, got, want)
		}
		for l := 0; l < 4; l++ {
			if v := lanes >> (16 * l) & 0xFFFF; v > 2*255 {
				t.Fatalf("sadWord(%#x, %#x) lane %d = %d > 510", s, r, l, v)
			}
		}
	}
}

// FuzzSADMatchesScalar checks sadMBLimit against the scalar reference on
// fuzzed pixels, displacements (interior and edge) and limits.
func FuzzSADMatchesScalar(f *testing.F) {
	f.Add([]byte{0}, int8(0), int8(0), int32(math.MaxInt32))
	f.Add([]byte{255, 0}, int8(3), int8(-5), int32(1000))
	f.Add([]byte{1, 2, 3, 250, 251, 252, 7}, int8(-20), int8(20), int32(0))
	f.Add([]byte("a fuzz seed with some texture to it"), int8(16), int8(-16), int32(-1))
	f.Add([]byte{128, 127, 129}, int8(-16), int8(9), int32(4000))
	f.Fuzz(func(t *testing.T, data []byte, dx, dy int8, limit int32) {
		if len(data) == 0 {
			return
		}
		const w, h = 48, 48
		src, ref := video.NewFrame(w, h), video.NewFrame(w, h)
		for i := range src.Y {
			src.Y[i] = data[i%len(data)]
			ref.Y[i] = data[(i*7+3)%len(data)] ^ byte(i/len(data))
		}
		ddx, ddy := int(dx)%25, int(dy)%25
		lim := int(limit)
		if limit == math.MaxInt32 {
			lim = maxInt
		}
		want := sadMBScalar(src, ref, 16, 16, ddx, ddy, lim)
		if got := sadMBLimit(src, ref, 16, 16, ddx, ddy, lim); got != want {
			t.Fatalf("(%d,%d) limit %d: SAD %d, scalar %d", ddx, ddy, lim, got, want)
		}
	})
}

func TestQuantiseMatchesBranchy(t *testing.T) {
	check := func(name string, coeff *[64]float64, q float64) {
		t.Helper()
		var got, want [64]int32
		gn := quantiseCoeffs(coeff, q, &got)
		wn := quantiseCoeffsBranchy(coeff, q, &want)
		if gn != wn || got != want {
			t.Fatalf("%s: quantiseCoeffs = %d %v, branchy reference = %d %v", name, gn, got, wn, want)
		}
	}
	var zero [64]float64
	check("all zero", &zero, 8)
	var neg [64]float64
	for i := range neg {
		neg[i] = math.Copysign(0, -1)
	}
	check("all -0", &neg, 8)
	var qz [64]int32
	if n := quantiseCoeffs(&neg, 8, &qz); n != -1 {
		t.Fatalf("all -0 block: last nonzero %d, want -1", n)
	}
	// Exact ties: with q = 1 the ramp is exactly 1, 1/2 and 1/4 at
	// zig-zag positions 0, 16 and 48, so these coefficients quantise to
	// exactly ±k.5.
	for k := 0; k < 40; k++ {
		for _, sign := range []float64{1, -1} {
			var c [64]float64
			c[zigzag[0]] = sign * (float64(k) + 0.5)
			c[zigzag[16]] = sign * 2 * (float64(k) + 0.5)
			c[zigzag[48]] = sign * 4 * (float64(k) + 0.5)
			check("tie", &c, 1)
			var qv [64]int32
			quantiseCoeffs(&c, 1, &qv)
			want := int32(sign) * int32(k+1)
			if qv[0] != want || qv[16] != want || qv[48] != want {
				t.Fatalf("tie %v*(%d+0.5): got %d %d %d, want %d (half away from zero)", sign, k, qv[0], qv[16], qv[48], want)
			}
		}
	}
	// Just inside and outside the ties, and large magnitudes.
	for _, v := range []float64{0.49999999999999994, 0.5000000000000001, -0.49999999999999994, -0.5000000000000001,
		1e6, -1e6, 1e9, -1e9, 2147483647, -2147483648, 1e12, -1e12, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64} {
		var c [64]float64
		c[zigzag[0]] = v
		c[zigzag[63]] = -v
		check("magnitude", &c, 1)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		var c [64]float64
		scale := []float64{1, 20, 300, 5000}[i%4]
		for j := range c {
			c[j] = rng.NormFloat64() * scale
		}
		check("random", &c, []float64{1, 8, 10, 12}[i%4])
	}
}

func TestQuantiseBlockMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		var s, coeff [64]float64
		for j := range s {
			s[j] = rng.NormFloat64() * float64(1+i%40)
		}
		var got, want [64]int32
		gn := quantiseBlock(&s, 10, &got)
		fdct8(&s, &coeff)
		wn := quantiseCoeffsBranchy(&coeff, 10, &want)
		if gn != wn || got != want {
			t.Fatalf("block %d: quantiseBlock = %d, reference = %d", i, gn, wn)
		}
	}
}

// TestClampByte pins clampByte's saturation and round-half-up at the
// boundaries every reconstruction path depends on.
func TestClampByte(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want byte
	}{
		{math.Copysign(0, -1), 0}, {0, 0}, {0.49, 0}, {0.5, 1}, {-0.6, 0},
		{127.5, 128}, {254.49, 254}, {254.5, 255}, {255, 255}, {255.4, 255},
		{1e9, 255}, {-1e9, 0}, {math.Inf(1), 255}, {math.Inf(-1), 0},
	} {
		if got := clampByte(c.v); got != c.want {
			t.Errorf("clampByte(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestMotionSearchSkipsOnlyLosers checks that not re-scoring visited
// displacements never changes the chosen vector, over every macroblock
// of real clips with predictor seeds, including repeated and
// out-of-range ones.
func TestMotionSearchSkipsOnlyLosers(t *testing.T) {
	var seen visitSet
	for _, m := range []video.MotionLevel{video.MotionLow, video.MotionHigh} {
		clip := video.Generate(video.SceneConfig{W: 128, H: 96, Frames: 3, Motion: m, Seed: 31})
		cfg := smallConfig(30)
		cfg.Width, cfg.Height = 128, 96
		for _, r := range []int{4, 16} {
			cfg.SearchRange = r
			for fi := 1; fi < len(clip); fi++ {
				src, ref := clip[fi], clip[fi-1]
				for y0 := 0; y0 < cfg.Height; y0 += mbSize {
					for x0 := 0; x0 < cfg.Width; x0 += mbSize {
						starts := [][2]int{{x0 % 5, -y0 % 3}, {1, 1}, {1, 1}, {0, 0}, {40, 0}}
						gx, gy := motionSearch(&seen, src, ref, x0, y0, cfg, starts)
						wx, wy := motionSearchRescoring(src, ref, x0, y0, cfg, starts)
						if gx != wx || gy != wy {
							t.Fatalf("motion=%v range=%d MB (%d,%d): vector (%d,%d), rescoring reference (%d,%d)",
								m, r, x0, y0, gx, gy, wx, wy)
						}
					}
				}
			}
		}
	}
}

func TestVisitSetWraps(t *testing.T) {
	var v visitSet
	v.reset()
	if !v.first(3, -4) || v.first(3, -4) {
		t.Fatal("first must report only the first visit")
	}
	// Drive the stamp through a wrap: a displacement marked under an old
	// stamp must not read as visited in a later search.
	v.seen[(0+maxSearchRange)*(2*maxSearchRange+1)+maxSearchRange] = 1
	for i := 0; i < 1<<16; i++ {
		v.reset()
	}
	if v.stamp == 0 {
		t.Fatal("stamp 0 must never be live")
	}
	if !v.first(0, 0) || !v.first(-maxSearchRange, maxSearchRange) || !v.first(maxSearchRange, -maxSearchRange) {
		t.Fatal("stale marks survived a new search")
	}
}
