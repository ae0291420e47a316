package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Slice packetization. A packet carries a self-contained slice: a run of
// consecutive macroblocks of one frame plus enough header to place them.
// I-frames are much larger than the MTU and fragment into many packets;
// P-frames typically fit in one small packet — exactly the two arrival
// classes of the paper's 2-MMPP model (Section 4.2.1).
//
// Wire format (all integers unsigned varints):
//
//	frameNumber | frameType | mbStart | mbCount | (len | bytes)*mbCount

// Packet is one network-ready slice of an encoded frame.
type Packet struct {
	FrameNumber int
	Type        FrameType
	MBStart     int
	MBCount     int
	Payload     []byte // serialized slice, the unit of encryption
}

// IsIFrame reports whether the packet belongs to an I-frame, the property
// encryption policies select on.
func (p Packet) IsIFrame() bool { return p.Type == IFrame }

// Packetize splits an encoded frame into slice packets whose payloads do
// not exceed mtu bytes (individual macroblocks larger than the MTU get a
// packet of their own; with sane quantisation this does not happen at CIF).
func Packetize(ef *EncodedFrame, mtu int) ([]Packet, error) {
	if mtu < 64 {
		return nil, fmt.Errorf("codec: mtu %d too small", mtu)
	}
	var out []Packet
	start := 0
	for start < len(ef.MBData) {
		end := nextSliceEnd(ef, start, mtu)
		payload := AppendSlice(make([]byte, 0, sliceLen(ef, start, end-start)), ef, start, end-start)
		out = append(out, Packet{
			FrameNumber: ef.Number,
			Type:        ef.Type,
			MBStart:     start,
			MBCount:     end - start,
			Payload:     payload,
		})
		start = end
	}
	return out, nil
}

// ParsePacket decodes a slice payload back into a Packet with the
// macroblock chunks attached (stored concatenated in Payload; use
// SliceMBs to extract them). It accepts exactly the payloads
// Reassembler.Add can parse.
func ParsePacket(payload []byte) (Packet, error) {
	frame, typ, mbStart, mbCount, _, err := walkSlice(payload)
	if err != nil {
		return Packet{Payload: payload}, err
	}
	return Packet{FrameNumber: frame, Type: typ, MBStart: mbStart, MBCount: mbCount, Payload: payload}, nil
}

// SliceMBs extracts the macroblock chunks of a slice payload.
func SliceMBs(payload []byte) (mbStart int, chunks [][]byte, err error) {
	_, _, mbStart, mbCount, body, err := walkSlice(payload)
	if err != nil {
		return 0, nil, err
	}
	chunks = make([][]byte, mbCount)
	for i := range chunks {
		// Cannot fail: walkSlice has walked the same chunks.
		if chunks[i], body, err = nextChunk(body); err != nil {
			return 0, nil, err
		}
	}
	return mbStart, chunks, nil
}

var errSliceVarint = errors.New("codec: bad varint in slice")

// walkSlice is the one slice parser. It reads the header, caps mbStart
// and mbCount, and walks every chunk length against the bytes left, so a
// garbled or truncated payload is refused before anything is kept. body
// is the chunk region: exactly mbCount well-formed (len | bytes) chunks,
// without any trailing bytes.
func walkSlice(payload []byte) (frame int, typ FrameType, mbStart, mbCount int, body []byte, err error) {
	rest := payload
	get := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errSliceVarint
		}
		rest = rest[n:]
		return v, nil
	}
	fn, err := get()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	ft, err := get()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if ft > uint64(BFrame) {
		return 0, 0, 0, 0, nil, fmt.Errorf("codec: bad frame type %d", ft)
	}
	ms, err := get()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if ms > 1<<20 {
		// Also keeps int(ms) from wrapping negative on a hostile varint,
		// which would slip past the reassembler's upper-bound check and
		// index out of range.
		return 0, 0, 0, 0, nil, fmt.Errorf("codec: implausible slice start %d", ms)
	}
	mc, err := get()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if mc > 1<<20 {
		return 0, 0, 0, 0, nil, fmt.Errorf("codec: implausible slice size %d", mc)
	}
	tail := rest
	for i := 0; i < int(mc); i++ {
		if _, tail, err = nextChunk(tail); err != nil {
			return 0, 0, 0, 0, nil, err
		}
	}
	return int(fn), FrameType(ft), int(ms), int(mc), rest[:len(rest)-len(tail)], nil
}

// nextChunk splits the first (len | bytes) chunk off a chunk region. The
// chunk is cap-clamped, so appending to it never reaches into tail.
func nextChunk(rest []byte) (chunk, tail []byte, err error) {
	l, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, nil, errSliceVarint
	}
	rest = rest[n:]
	if uint64(len(rest)) < l {
		return nil, nil, fmt.Errorf("codec: slice truncated")
	}
	return rest[:l:l], rest[l:], nil
}

// Reassembler collects slice payloads back into per-frame EncodedFrames,
// leaving nil chunks where slices never arrived (lost or, at the
// eavesdropper, encrypted). It is the receive-side counterpart of
// Packetize.
type Reassembler struct {
	cfg    Config
	frames map[int]*EncodedFrame
}

// NewReassembler returns a reassembler for streams encoded with cfg.
func NewReassembler(cfg Config) (*Reassembler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reassembler{cfg: cfg, frames: make(map[int]*EncodedFrame)}, nil
}

// Add incorporates one received slice payload. Damaged payloads are
// reported but otherwise ignored (the affected macroblocks stay lost).
// An accepted payload costs one copy: its chunk region is copied once
// and the frame's macroblocks point at cap-clamped views of that copy,
// so payload is reusable as soon as Add returns.
func (r *Reassembler) Add(payload []byte) error {
	frame, typ, mbStart, mbCount, body, err := walkSlice(payload)
	if err != nil {
		return err
	}
	total := r.cfg.MBCols() * r.cfg.MBRows()
	if mbStart < 0 || mbCount > total || mbStart > total-mbCount {
		return fmt.Errorf("codec: slice range [%d,%d) exceeds %d macroblocks", mbStart, mbStart+mbCount, total)
	}
	f := r.frames[frame]
	if f == nil {
		f = &EncodedFrame{Number: frame, Type: typ, MBData: make([][]byte, total)}
		r.frames[frame] = f
	}
	rest := append([]byte(nil), body...)
	for i := 0; i < mbCount; i++ {
		var c []byte
		// Cannot fail: walkSlice has walked the same bytes.
		if c, rest, err = nextChunk(rest); err != nil {
			return err
		}
		// The range check above already constrains mbStart+mbCount
		// against total, but total and len(f.MBData) are only equal
		// while every frame of the session was built by this
		// reassembler; re-checking against the destination itself keeps
		// the write in bounds under any future refactor (and makes the
		// bounds proof local, which the netbound gate verifies).
		j := mbStart + i
		if j >= len(f.MBData) {
			return fmt.Errorf("codec: slice chunk %d lands outside %d macroblocks", j, len(f.MBData))
		}
		if len(c) == 0 {
			c = nil // an empty chunk is a lost macroblock
		}
		f.MBData[j] = c
	}
	return nil
}

// Frame returns the (possibly partial) frame n, or nil if nothing of it
// arrived.
func (r *Reassembler) Frame(n int) *EncodedFrame { return r.frames[n] }

// Frames returns the first total frames in order; entries are nil for
// frames of which nothing arrived.
func (r *Reassembler) Frames(total int) []*EncodedFrame {
	out := make([]*EncodedFrame, total)
	for i := range out {
		out[i] = r.frames[i]
	}
	return out
}
