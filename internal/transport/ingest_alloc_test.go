package transport

import (
	"net/netip"
	"testing"

	"repro/internal/codec"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// ingestClip encodes a small clip and returns an ingest configuration
// for it with the clip's slice payloads and, per payload, whether the
// policy's selector marks it for encryption.
func ingestClip(tb testing.TB, policy vcrypt.Policy) (IngestConfig, [][]byte, []bool) {
	tb.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 24, Motion: video.MotionMedium, Seed: 5})
	cfg := codec.Config{Width: 96, Height: 96, GOPSize: 12, QI: 8, QP: 10, SearchRange: 16}
	encoded, err := codec.EncodeSequence(clip, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := vcrypt.NewSelector(policy)
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	var marked []bool
	for _, ef := range encoded {
		pkts, err := codec.Packetize(ef, 1400)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range pkts {
			payloads = append(payloads, p.Payload)
			marked = append(marked, sel.ShouldEncrypt(p.IsIFrame()))
		}
	}
	key := make([]byte, policy.Alg.KeySize())
	for i := range key {
		key[i] = byte(i)
	}
	return IngestConfig{Cfg: cfg, Alg: policy.Alg, Key: key}, payloads, marked
}

// ingestDatagrams marshals n datagrams of one session, sequences from 0,
// cycling through the clip's payloads and encrypting the marked ones.
func ingestDatagrams(tb testing.TB, cfg IngestConfig, payloads [][]byte, marked []bool, n int) [][]byte {
	tb.Helper()
	cipher, err := vcrypt.NewCipher(cfg.Alg, cfg.Key)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		var c *vcrypt.Cipher
		if marked[i%len(payloads)] {
			c = cipher
		}
		out[i] = craftedDatagram(c, uint64(i), payloads[i%len(payloads)])
	}
	return out
}

var ingestPolicies = []struct {
	name string
	mode vcrypt.Mode
}{{"None", vcrypt.ModeNone}, {"I", vcrypt.ModeIFrames}, {"All", vcrypt.ModeAll}}

// TestIngestHandleAllocs pins the ingest packet path: once a session
// holds every frame of its clip, one datagram costs at most two
// allocations, for every encryption policy.
func TestIngestHandleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 100
	for _, pol := range ingestPolicies {
		t.Run(pol.name, func(t *testing.T) {
			cfg, payloads, marked := ingestClip(t, vcrypt.Policy{Mode: pol.mode, Alg: vcrypt.AES256})
			srv, err := newIngestServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One pass over the clip creates its frames; AllocsPerRun's
			// warm-up call takes one more datagram.
			dgrams := ingestDatagrams(t, cfg, payloads, marked, len(payloads)+runs+1)
			buf := make([]byte, 0, 65536)
			next := 0
			handle := func() {
				// handle opens the payload in place: hand it a copy, as
				// the read loop hands it its one reused buffer.
				buf = append(buf[:0], dgrams[next]...)
				next++
				srv.handle(buf, netip.AddrPort{})
			}
			for range payloads {
				handle()
			}
			allocs := testing.AllocsPerRun(runs, handle)
			t.Logf("%.2f allocations per datagram", allocs)
			st, _ := srv.SessionStats(0x7561)
			if st.Received != len(dgrams) || st.Usable != len(dgrams) {
				t.Fatalf("session stats %+v, want %d received and usable", st, len(dgrams))
			}
			if allocs > 2 {
				t.Fatalf("IngestServer.handle makes %.2f allocations per datagram, want <= 2", allocs)
			}
		})
	}
}

// BenchmarkIngestPacket drives IngestServer.handle with no socket: each
// pass sends one clip as one session and ends it with a FIN, so the
// per-datagram cost includes the session's admission and frame state.
func BenchmarkIngestPacket(b *testing.B) {
	for _, pol := range ingestPolicies {
		b.Run(pol.name, func(b *testing.B) {
			cfg, payloads, marked := ingestClip(b, vcrypt.Policy{Mode: pol.mode, Alg: vcrypt.AES256})
			srv, err := newIngestServer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dgrams := ingestDatagrams(b, cfg, payloads, marked, len(payloads))
			fin := marshalFIN(0x7561)
			buf := make([]byte, 0, 65536)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = append(buf[:0], dgrams[i%len(dgrams)]...)
				srv.handle(buf, netip.AddrPort{})
				if i%len(dgrams) == len(dgrams)-1 {
					srv.handle(fin, netip.AddrPort{})
				}
			}
		})
	}
}
