package transport

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// sameFrames fails unless got holds exactly want's frames, byte for byte.
func sameFrames(t *testing.T, name string, got, want []*codec.EncodedFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: frame %d present=%v, want present=%v", name, i, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		if g.Number != w.Number || g.Type != w.Type || len(g.MBData) != len(w.MBData) {
			t.Fatalf("%s: frame %d header (%d, %v, %d MBs), want (%d, %v, %d MBs)",
				name, i, g.Number, g.Type, len(g.MBData), w.Number, w.Type, len(w.MBData))
		}
		for mb := range w.MBData {
			if !bytes.Equal(g.MBData[mb], w.MBData[mb]) {
				t.Fatalf("%s: frame %d MB %d differs", name, i, mb)
			}
		}
	}
}

// craftedDatagram marshals one RTP packet of the live senders' SSRC,
// encrypting the payload under seq64 first when c is non-nil.
func craftedDatagram(c *vcrypt.Cipher, seq64 uint64, payload []byte) []byte {
	payload = append([]byte(nil), payload...)
	if c != nil {
		c.EncryptPacket(seq64, payload)
	}
	p := rtp.Packet{
		PayloadType: rtp.PayloadTypeVideo,
		Marker:      c != nil,
		Sequence:    uint16(seq64),
		Timestamp:   uint32(seq64),
		SSRC:        0x7561,
		Payload:     payload,
	}
	return p.Marshal()
}

// TestLiveReceiverAndIngestAgree feeds one crafted datagram list straight
// into both UDP front ends — no sockets, no sleeps — and requires the same
// counts and byte-identical frames, for a keyed receiver and for the
// keyless eavesdropper. The list crosses the 16-bit sequence wrap, holds
// back a straggler from before the wrap, replays two packets, mixes
// encrypted and plaintext payloads, and adds a truncated payload, a
// truncated RTP header and a garbage datagram.
func TestLiveReceiverAndIngestAgree(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cipher, err := vcrypt.NewCipher(pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	const base, n = 65530, 12 // sequences 65530..65541 straddle the wrap
	payloads := regressPayloads(t, s, n+1)
	packet := func(i int) []byte {
		c := cipher
		if i%2 == 1 {
			c = nil // odd packets travel in plaintext
		}
		return craftedDatagram(c, base+uint64(i), payloads[i])
	}
	var list [][]byte
	for i := 0; i < n; i++ {
		if i == 4 {
			continue // 65534 arrives late, after the wrap
		}
		list = append(list, packet(i))
		if i == 7 {
			list = append(list, packet(4))
		}
	}
	list = append(list,
		packet(1), packet(6), // replays: one before, one after the wrap
		craftedDatagram(nil, base+n, payloads[n][:len(payloads[n])/2]), // parses as RTP, not as a slice
		packet(0)[:rtp.HeaderSize-1],                                   // truncated RTP header
		bytes.Repeat([]byte{0xFF}, 40),                                 // not RTP at all
	)

	for _, tc := range []struct {
		name   string
		key    []byte
		usable int
	}{
		{"keyed", s.Key, n},
		{"keyless", nil, n / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rx, err := newLiveReceiver(s.Config, pol.Alg, tc.key, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ingestTestConfig(s)
			cfg.Key = tc.key
			srv, err := newIngestServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range list {
				// Both front ends open payloads in place: each gets its
				// own copy of the datagram.
				rx.handle(append([]byte(nil), d...), netip.AddrPort{})
				srv.handle(append([]byte(nil), d...), netip.AddrPort{})
			}
			st, ok := srv.SessionStats(0x7561)
			if !ok {
				t.Fatal("ingest never admitted the session")
			}
			captured, usable := rx.Stats()
			if captured != st.Received || usable != st.Usable || rx.Duplicates() != st.Duplicates {
				t.Fatalf("live %d/%d/%d vs ingest %d/%d/%d (received/usable/duplicates)",
					captured, usable, rx.Duplicates(), st.Received, st.Usable, st.Duplicates)
			}
			if st.Received != n+1 || st.Usable != tc.usable || st.Duplicates != 2 {
				t.Fatalf("stats %+v, want received %d, usable %d, duplicates 2", st, n+1, tc.usable)
			}
			if bad := srv.Totals().BadPackets; bad != 2 {
				t.Fatalf("ingest counted %d bad datagrams, want 2", bad)
			}
			total := len(s.Encoded)
			sameFrames(t, "live vs ingest", rx.Frames(total), srv.SessionFrames(0x7561, total))
		})
	}
}

// An unpaced sender bursts a whole CIF clip at the receiver faster than
// one reader drains a default-sized socket buffer; before the receiver
// asked for the ingest daemon's 8 MB buffer it lost up to half of such a
// burst on loopback. Every packet must now arrive and reassemble.
func TestLiveReceiverAbsorbsUnpacedBurst(t *testing.T) {
	clip := video.Generate(video.SceneConfig{
		W: video.CIFWidth, H: video.CIFHeight, Frames: 60, Motion: video.MotionMedium, Seed: 4,
	})
	cfg := codec.DefaultConfig(30)
	cfg.Workers = runtime.NumCPU()
	encoded, err := codec.EncodeSequence(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}
	key := make([]byte, pol.Alg.KeySize())
	s := Session{Config: cfg, Encoded: encoded, FPS: 30, MTU: 1400, Policy: pol, Key: key}
	rx, err := NewLiveReceiver(cfg, pol.Alg, key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rep, err := LiveUDPSend(s, rx.Addr(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.WaitForPackets(rep.Packets, 5*time.Second); err != nil {
		captured, _ := rx.Stats()
		t.Fatalf("captured %d of %d: %v", captured, rep.Packets, err)
	}
	if captured, usable := rx.Stats(); captured != rep.Packets || usable != rep.Packets {
		t.Fatalf("captured/usable %d/%d of %d sent", captured, usable, rep.Packets)
	}
}
