package transport

import (
	"net"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
)

// openPacket is the receive rule of the paper, shared by every receiver:
// a marked payload is decrypted in place under seq — only the
// header-only prefix when hdrOnly > 0 — and without a key (c == nil) it
// is an erasure; the payload is then reassembled. It reports whether the
// payload reassembled cleanly. The reassembler makes one copy of each
// payload it accepts and keeps views into that copy, never into payload,
// so payload is reusable as soon as openPacket returns.
func openPacket(asm *codec.Reassembler, c *vcrypt.Cipher, hdrOnly int, seq uint64, encrypted bool, payload []byte) bool {
	if encrypted {
		if c == nil {
			return false
		}
		c.DecryptPacket(seq, payload[:vcrypt.Policy{HeaderOnlyBytes: hdrOnly}.EncryptSpan(len(payload))])
	}
	return asm.Add(payload) == nil
}

// rxSession is one RTP stream's receive state, the part LiveReceiver
// (one session) and IngestServer (one per SSRC) share. Not
// concurrency-safe: the front end holds its own lock around every use.
type rxSession struct {
	ext seqExtender // 16-bit wire sequence → 64-bit cipher IV counter
	// window is the always-on dedup set: duplication, replays and
	// retransmit races count only as Duplicates, never as Received.
	window  *seqWindow
	asm     *codec.Reassembler
	cipher  *vcrypt.Cipher // nil without a key: marked payloads are erasures
	hdrOnly int            // the sender's Policy.HeaderOnlyBytes
	stats   IngestSessionStats
}

func newRxSession(cfg codec.Config, c *vcrypt.Cipher, hdrOnly int) (rxSession, error) {
	asm, err := codec.NewReassembler(cfg)
	if err != nil {
		return rxSession{}, err
	}
	return rxSession{window: newSeqWindow(defaultSeqSpan), asm: asm, cipher: c, hdrOnly: hdrOnly}, nil
}

// accept runs the receive step on one arrival already extended to seq64.
// A repeat of a delivered sequence is only counted (dup). A first
// delivery is counted, opened and reassembled; usable reports whether it
// reassembled cleanly.
func (rs *rxSession) accept(seq64 uint64, pkt rtp.Packet) (dup, usable bool) {
	if rs.window.Mark(seq64) {
		rs.stats.Duplicates++
		return true, false
	}
	rs.stats.Received++
	rs.stats.Bytes += int64(len(pkt.Payload))
	if openPacket(rs.asm, rs.cipher, rs.hdrOnly, seq64, pkt.Encrypted(), pkt.Payload) {
		rs.stats.Usable++
		return false, true
	}
	return false, false
}

// listenUDP opens a receive socket with an 8 MB kernel read buffer: an
// unpaced sender bursts a whole clip faster than one reader drains the
// default buffer. The request is best effort — the kernel caps it at
// net.core.rmem_max, and a smaller buffer only costs drops.
func listenUDP(addr string) (*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(8 << 20) //nolint:errcheck // best effort; the default buffer only costs more drops
	return conn, nil
}
