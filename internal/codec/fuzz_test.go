package codec

import (
	"bytes"
	"testing"
)

// fuzzConfig is a tiny but valid stream configuration: a 2x2 macroblock
// grid keeps reassembly allocations small while exercising every header
// path.
func fuzzConfig() Config {
	return Config{Width: 32, Height: 32, GOPSize: 4, QI: 8, QP: 10, SearchRange: 4}
}

// fuzzFrame builds a well-formed encoded frame for the fuzz seeds.
func fuzzFrame(cfg Config, number int, ft FrameType) *EncodedFrame {
	total := cfg.MBCols() * cfg.MBRows()
	ef := &EncodedFrame{Number: number, Type: ft, MBData: make([][]byte, total)}
	for i := range ef.MBData {
		ef.MBData[i] = []byte{byte(number), byte(i), 0xAB}
	}
	return ef
}

// FuzzReadContainer feeds arbitrary bytes to the container parser. The
// parser must reject or accept without panicking or over-allocating,
// and anything it accepts must serialise back.
func FuzzReadContainer(f *testing.F) {
	cfg := fuzzConfig()
	var buf bytes.Buffer
	if err := WriteContainer(&buf, cfg, []*EncodedFrame{fuzzFrame(cfg, 0, IFrame), fuzzFrame(cfg, 1, PFrame)}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])   // truncated mid-frame
	f.Add(valid[:5])              // truncated mid-header
	f.Add([]byte("TVID"))         // magic only
	f.Add([]byte("nope"))         // wrong magic
	f.Add(bytes.Repeat(valid, 2)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, frames, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteContainer(&out, cfg, frames); err != nil {
			t.Fatalf("accepted container failed to re-serialise: %v", err)
		}
	})
}

// FuzzReassembler feeds arbitrary slice payloads through ParsePacket,
// SliceMBs and Reassembler.Add — the exact path an eavesdropper's
// garbled ciphertext takes. Damaged payloads must come back as errors,
// never as panics or out-of-range writes, and an accepted payload must
// reassemble to exactly the chunks SliceMBs cuts from it.
func FuzzReassembler(f *testing.F) {
	cfg := fuzzConfig()
	pkts, err := Packetize(fuzzFrame(cfg, 3, IFrame), 256)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range pkts {
		f.Add(p.Payload)
		if len(p.Payload) > 3 {
			f.Add(p.Payload[:len(p.Payload)-3]) // truncated slice
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge varint
	f.Add([]byte{0, 0, 1, 2, 0, 2, 0xCD, 0xEF})                               // empty chunk, then a 2-byte one
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePacket(data)
		if err != nil {
			return
		}
		r, err := NewReassembler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Add(data); err != nil {
			return
		}
		// An accepted slice must have landed inside the frame grid.
		total := cfg.MBCols() * cfg.MBRows()
		mbStart, chunks, err := SliceMBs(data)
		if err != nil {
			t.Fatalf("Add accepted a payload SliceMBs rejects: %v", err)
		}
		if mbStart < 0 || mbStart+len(chunks) > total {
			t.Fatalf("accepted slice range [%d,%d) outside %d macroblocks", mbStart, mbStart+len(chunks), total)
		}
		// And it must hold exactly SliceMBs' chunks, an empty one as a
		// lost (nil) macroblock.
		fr := r.Frame(p.FrameNumber)
		for i, c := range chunks {
			got := fr.MBData[mbStart+i]
			if !bytes.Equal(got, c) || (got == nil) != (len(c) == 0) {
				t.Fatalf("macroblock %d reassembled as %x, want chunk %d = %x", mbStart+i, got, i, c)
			}
		}
	})
}
