package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/video"
)

// goldenCase is one clip of the frozen bitstream oracle.
type goldenCase struct {
	name   string
	scene  video.SceneConfig
	cfg    Config
	digest string // SHA-256 of every MBData chunk and decoded plane
}

func goldenCases() []goldenCase {
	cif := func(m video.MotionLevel, frames int, seed uint64) video.SceneConfig {
		return video.SceneConfig{W: video.CIFWidth, H: video.CIFHeight, Frames: frames, Motion: m, Seed: seed}
	}
	conf := func(gop int, full bool, workers, bframes int) Config {
		c := DefaultConfig(gop)
		c.FullSearch, c.Workers, c.BFrames = full, workers, bframes
		return c
	}
	edge := conf(4, false, 1, 0)
	edge.Width, edge.Height = 96, 64
	par := runtime.NumCPU()
	return []goldenCase{
		{"low/diamond/serial", cif(video.MotionLow, 12, 21), conf(6, false, 1, 0),
			"9f50e09390d23cd03d724756d227041560eb77f2f9df776a0e8e751590318b26"},
		{"medium/diamond/parallel", cif(video.MotionMedium, 12, 22), conf(6, false, par, 0),
			"470655b5f8a3488a7cad255a4dfa0258297d70a1bee69ef8f2ca5a7dd285df1f"},
		{"high/diamond/serial", cif(video.MotionHigh, 12, 23), conf(6, false, 1, 0),
			"3f52c142a34071358cb9be607ea0c91b9b5f96e01995ee427a667892629e8e9a"},
		{"medium/full/serial", cif(video.MotionMedium, 5, 24), conf(5, true, 1, 0),
			"d18463a50731ec80247ea8494e89262ee7e37cb01b2b2fb5f77296abbd08df98"},
		{"high/full/parallel", cif(video.MotionHigh, 5, 25), conf(5, true, par, 0),
			"d9c14373c828f4b799696185d8f3221023cf3b49445b5ae5640d093d5ce61076"},
		{"medium/bframes/parallel", cif(video.MotionMedium, 14, 26), conf(6, false, par, 2),
			"ba905f30821d221595c11a9a9c9894ba93a1498272f953f9a67b5d254617f4c2"},
		{"high/edge/serial", video.SceneConfig{W: 96, H: 64, Frames: 12, Motion: video.MotionHigh, Seed: 27}, edge,
			"f61f053d7d186ae813722b680dfc48d59a8f5b58b198066fb607df562570f547"},
	}
}

// TestEncodeGoldenDigest pins the exact encoder output and decoder
// reconstruction of a fixed set of clips to digests recorded before the
// encoder kernels were rewritten for speed. The agreement tests
// (parallel vs serial, batched vs per-macroblock) only show that two
// paths agree; this one shows the bytes themselves did not move.
func TestEncodeGoldenDigest(t *testing.T) {
	if goldenDigestSkip != "" {
		t.Skip(goldenDigestSkip)
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			clip := video.Generate(gc.scene)
			var enc []*EncodedFrame
			var dec []*video.Frame
			var err error
			if gc.cfg.BFrames > 0 {
				if enc, err = EncodeSequenceB(clip, gc.cfg); err == nil {
					dec, err = DecodeSequenceB(enc, gc.cfg)
				}
			} else {
				if enc, err = EncodeSequence(clip, gc.cfg); err == nil {
					dec, err = DecodeSequence(enc, gc.cfg)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if gc.name == "high/edge/serial" {
				luma, chroma := edgeVectors(t, enc, gc.cfg)
				if luma == 0 || chroma == 0 {
					t.Fatalf("edge clip has %d luma and %d chroma blocks predicted from outside the frame; want both > 0", luma, chroma)
				}
			}
			if got := streamDigest(enc, dec); got != gc.digest {
				t.Errorf("digest %s, recorded %s", got, gc.digest)
			}
		})
	}
}

// streamDigest hashes every frame header, every length-prefixed MBData
// chunk and every decoded plane.
func streamDigest(enc []*EncodedFrame, dec []*video.Frame) string {
	h := sha256.New()
	u := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, ef := range enc {
		u(ef.Number)
		u(int(ef.Type))
		u(len(ef.MBData))
		for _, c := range ef.MBData {
			u(len(c))
			h.Write(c)
		}
	}
	for _, f := range dec {
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// edgeVectors counts the P-frame luma and chroma macroblock predictions
// whose displaced footprint leaves the reference frame, so the clamped
// edge paths of the kernels are known to run.
func edgeVectors(t *testing.T, enc []*EncodedFrame, cfg Config) (luma, chroma int) {
	t.Helper()
	cols := cfg.MBCols()
	cw, ch := cfg.Width/2, cfg.Height/2
	outside := func(x, y, n, w, h int) bool { return x < 0 || y < 0 || x+n > w || y+n > h }
	for _, ef := range enc {
		if ef.Type != PFrame {
			continue
		}
		for i, c := range ef.MBData {
			r := newBitReader(c)
			dx, err := r.readSE()
			if err != nil {
				t.Fatal(err)
			}
			dy, err := r.readSE()
			if err != nil {
				t.Fatal(err)
			}
			x0, y0 := (i%cols)*mbSize, (i/cols)*mbSize
			if outside(x0+int(dx), y0+int(dy), mbSize, cfg.Width, cfg.Height) {
				luma++
			}
			if outside(x0/2+int(dx)/2, y0/2+int(dy)/2, blockSize, cw, ch) {
				chroma++
			}
		}
	}
	return luma, chroma
}
