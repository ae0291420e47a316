package codec

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/video"
)

const testMTU = 1400

func encodeOne(t *testing.T, motion video.MotionLevel) ([]*video.Frame, []*EncodedFrame, Config) {
	t.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: motion, Seed: 21})
	cfg := smallConfig(6)
	encoded, err := EncodeSequence(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clip, encoded, cfg
}

func TestPacketizeRespectsMTU(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionMedium)
	for _, ef := range encoded {
		pkts, err := Packetize(ef, testMTU)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) == 0 {
			t.Fatal("frame produced no packets")
		}
		for _, p := range pkts {
			if p.MBCount > 1 && len(p.Payload) > testMTU {
				t.Fatalf("multi-MB packet of %d bytes exceeds MTU", len(p.Payload))
			}
		}
	}
}

func TestPacketizeCoversAllMacroblocks(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionHigh)
	total := cfg.MBCols() * cfg.MBRows()
	for _, ef := range encoded {
		pkts, err := Packetize(ef, testMTU)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, total)
		for _, p := range pkts {
			for i := p.MBStart; i < p.MBStart+p.MBCount; i++ {
				if covered[i] {
					t.Fatalf("macroblock %d covered twice", i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("macroblock %d not covered", i)
			}
		}
	}
}

func TestIFramesFragmentPFramesDoNot(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		if ef.Type == IFrame && len(pkts) < 2 {
			t.Fatalf("I-frame of %d bytes produced only %d packets", ef.Size(), len(pkts))
		}
		if ef.Type == PFrame && len(pkts) != 1 {
			t.Fatalf("slow-motion P-frame of %d bytes fragmented into %d packets", ef.Size(), len(pkts))
		}
	}
}

func TestReassembleLossless(t *testing.T) {
	clip, encoded, cfg := encodeOne(t, video.MotionMedium)
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		for _, p := range pkts {
			if err := re.Add(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := re.Frames(len(encoded))
	decoded, err := DecodeSequence(frames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeSequence(encoded, cfg)
	for i := range decoded {
		if video.MSE(decoded[i], want[i]) != 0 {
			t.Fatalf("frame %d differs after packetize/reassemble", i)
		}
	}
	// The original clip should be well represented too.
	if psnr := video.SequencePSNR(clip, decoded); psnr < 30 {
		t.Fatalf("PSNR after lossless transport %.2f", psnr)
	}
}

func TestReassembleWithLossConcealsOnly(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	re, _ := NewReassembler(cfg)
	dropped := 0
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		for i, p := range pkts {
			if ef.Type == IFrame && i%3 == 0 {
				dropped++
				continue // drop every third I-frame slice
			}
			if err := re.Add(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("test expected to drop some slices")
	}
	frames := re.Frames(len(encoded))
	decoded, err := DecodeSequence(frames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(encoded) {
		t.Fatal("frame count changed")
	}
}

func TestParsePacketHeader(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	pkts, _ := Packetize(encoded[0], testMTU)
	p, err := ParsePacket(pkts[1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.FrameNumber != 0 || p.Type != IFrame || p.MBStart != pkts[1].MBStart || p.MBCount != pkts[1].MBCount {
		t.Fatalf("parsed header %+v vs %+v", p, pkts[1])
	}
	if !p.IsIFrame() {
		t.Fatal("IsIFrame wrong")
	}
}

func TestParsePacketGarbage(t *testing.T) {
	// Random bytes must never panic, only error or parse benignly.
	f := func(data []byte) bool {
		if _, err := ParsePacket(data); err != nil {
			return true
		}
		_, _, err := SliceMBs(data)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerRejectsOutOfRange(t *testing.T) {
	_, _, cfg := encodeOne(t, video.MotionLow)
	re, _ := NewReassembler(cfg)
	// A slice claiming an out-of-range macroblock index must be rejected.
	big := &EncodedFrame{Number: 0, Type: IFrame, MBData: make([][]byte, 100000)}
	big.MBData[99999] = []byte{1}
	payload := AppendSlice(nil, big, 99999, 1)
	if err := re.Add(payload); err == nil {
		t.Fatal("out-of-range slice should be rejected")
	}
}

func TestPacketizeTinyMTU(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	if _, err := Packetize(encoded[0], 10); err == nil {
		t.Fatal("tiny MTU should fail")
	}
}

func TestAnalyzeClipStats(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionLow)
	st, err := AnalyzeClip(encoded, cfg, testMTU)
	if err != nil {
		t.Fatal(err)
	}
	if st.IFrames != 2 || st.PFrames != 10 {
		t.Fatalf("frame counts %d/%d", st.IFrames, st.PFrames)
	}
	if st.MeanISize <= st.MeanPSize {
		t.Fatalf("mean I %v <= mean P %v", st.MeanISize, st.MeanPSize)
	}
	if st.IFraction <= 0 || st.IFraction >= 1 {
		t.Fatalf("pI = %v", st.IFraction)
	}
	if st.MeanPacketsPerIFrame() < 2 || st.MeanPacketsPerPFrame() != 1 {
		t.Fatalf("packets/frame: I %v P %v", st.MeanPacketsPerIFrame(), st.MeanPacketsPerPFrame())
	}
	if st.TotalBytes <= 0 {
		t.Fatal("no bytes counted")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	var buf syncWriter
	if err := WriteContainer(&buf, cfg, encoded); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotFrames, err := ReadContainer(&byteReader{data: buf.data})
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("config round trip: %+v vs %+v", gotCfg, cfg)
	}
	if len(gotFrames) != len(encoded) {
		t.Fatalf("frame count %d vs %d", len(gotFrames), len(encoded))
	}
	for i := range encoded {
		if gotFrames[i].Type != encoded[i].Type || gotFrames[i].Size() != encoded[i].Size() {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// Decoded output must be identical.
	a, _ := DecodeSequence(encoded, cfg)
	b, _ := DecodeSequence(gotFrames, cfg)
	for i := range a {
		if video.MSE(a[i], b[i]) != 0 {
			t.Fatalf("frame %d decodes differently after container round trip", i)
		}
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	if _, _, err := ReadContainer(&byteReader{data: []byte("NOPE nope")}); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, _, err := ReadContainer(&byteReader{}); err == nil {
		t.Fatal("empty input should fail")
	}
}

type syncWriter struct{ data []byte }

func (w *syncWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOFc
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

var errEOFc = errC("EOF")

type errC string

func (e errC) Error() string { return string(e) }

// clipPayloads packetizes every frame of a small clip.
func clipPayloads(t testing.TB) (Config, []*EncodedFrame, [][]byte) {
	t.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: video.MotionMedium, Seed: 21})
	cfg := smallConfig(6)
	encoded, err := EncodeSequence(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, ef := range encoded {
		pkts, err := Packetize(ef, 300) // several slices per frame
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			payloads = append(payloads, p.Payload)
		}
	}
	return cfg, encoded, payloads
}

// TestReassemblerAddAllocs pins the receive side's reassembly cost: a
// slice of a frame the reassembler already holds costs one allocation,
// the copy of its chunk region, however many macroblocks it carries.
func TestReassemblerAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg, _, payloads := clipPayloads(t)
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := re.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range payloads {
			if err := re.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / float64(len(payloads)); per > 1 {
		t.Fatalf("Reassembler.Add makes %.2f allocations per payload into existing frames, want <= 1", per)
	}
}

// TestReassemblerOwnsItsCopy overwrites every payload after Add: the
// reassembled frames must not change, because receivers reuse one read
// buffer for every datagram.
func TestReassemblerOwnsItsCopy(t *testing.T) {
	cfg, encoded, payloads := clipPayloads(t)
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2048)
	for _, p := range payloads {
		buf = append(buf[:0], p...)
		if err := re.Add(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	for i, got := range re.Frames(len(encoded)) {
		for mb, want := range encoded[i].MBData {
			if !bytes.Equal(got.MBData[mb], want) {
				t.Fatalf("frame %d MB %d changed when the payload buffer was reused", i, mb)
			}
		}
	}
}

// TestReassembledChunksAreCapClamped appends to each reassembled
// macroblock: the macroblocks share one copy per slice, so an append
// must reallocate rather than run into its neighbour.
func TestReassembledChunksAreCapClamped(t *testing.T) {
	cfg, encoded, payloads := clipPayloads(t)
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := re.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	f := re.Frame(0)
	for j := 0; j+1 < len(f.MBData); j++ {
		_ = append(f.MBData[j], 0xEE, 0xEE, 0xEE, 0xEE)
		if !bytes.Equal(f.MBData[j+1], encoded[0].MBData[j+1]) {
			t.Fatalf("appending to MB %d clobbered MB %d", j, j+1)
		}
	}
}

// TestReassemblerEmptyChunkIsLost sends a slice whose middle macroblock
// has a zero-length chunk: it must reassemble as nil, the decoder's mark
// of a lost macroblock.
func TestReassemblerEmptyChunkIsLost(t *testing.T) {
	cfg := smallConfig(6)
	ef := &EncodedFrame{Number: 2, Type: PFrame, MBData: make([][]byte, cfg.MBCols()*cfg.MBRows())}
	ef.MBData[0] = []byte{1, 2}
	ef.MBData[1] = []byte{}
	ef.MBData[2] = []byte{3}
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Add(AppendSlice(nil, ef, 0, 3)); err != nil {
		t.Fatal(err)
	}
	got := re.Frame(2).MBData
	if !bytes.Equal(got[0], []byte{1, 2}) || got[1] != nil || !bytes.Equal(got[2], []byte{3}) {
		t.Fatalf("reassembled %x / %x / %x, want 0102 / nil / 03", got[0], got[1], got[2])
	}
}

// BenchmarkReassemblerAdd adds a clip's slices over and over into one
// reassembler: after the first pass every frame exists, so this is the
// steady-state cost of one payload.
func BenchmarkReassemblerAdd(b *testing.B) {
	cfg, _, payloads := clipPayloads(b)
	re, err := NewReassembler(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := re.Add(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}
