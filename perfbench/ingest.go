package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vcrypt"
)

// ingest is multi-tenant fan-in. The run's clips are packetized and
// encrypted (policy I, AES256) once at set-up; one generator goroutine
// then replays them round-robin from one UDP socket as ingestSessions
// concurrent sessions (session s streams clip s mod clipsPerRun) into
// one keyed IngestServer. One op is one pass:
// fresh SSRCs, every session's datagrams sent and handled. One session
// in ten (the CLI loadgen's default) replays its first half after a cut,
// so the dedup path runs too.
type ingest struct {
	clips  []*clip
	dgrams [][]datagram // per clip
	srv    *transport.IngestServer
	conn   *net.UDPConn
	rng    *stats.RNG
	buf    []byte

	// The current pass.
	pass    int
	ssrcs   []uint32
	resumed []bool
	sent    int64
	base    transport.IngestTotals

	passes           []passRecord  // every pass, warm-up included
	generator        time.Duration // traced passes only
	waited           time.Duration // traced passes only
	reassembleAllocs []float64
}

// passRecord counts one pass's datagrams.
type passRecord struct {
	sent, handled, packets, usable, dups int64
}

// datagram is one packet of the pre-encrypted clip.
type datagram struct {
	payload   []byte
	encrypted bool
}

const (
	ingestSessions = 64
	resumeFrac     = 0.1
	// ingestWindow bounds the datagrams in flight (sent but not yet
	// handled by the server). UDP ingest sends no reply on the happy
	// path, so without a window a faster generator would only measure
	// socket-buffer overflow. When the window fills, the generator
	// sleeps until half of it has drained.
	ingestWindow = 256
	// firstSSRC numbers the sessions of pass p from firstSSRC+p*ingestSessions.
	firstSSRC = 0x100000
)

func newIngest(seed uint64) (workload, error) {
	clips, err := newClips(seed, false)
	if err != nil {
		return nil, err
	}
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	key := keyFor(pol.Alg)
	cipher, err := vcrypt.NewCipher(pol.Alg, key)
	if err != nil {
		return nil, err
	}
	sel, err := vcrypt.NewSelector(pol)
	if err != nil {
		return nil, err
	}
	g := &ingest{clips: clips, rng: stats.NewRNG(seed), buf: make([]byte, rtp.HeaderSize+clipMTU+64)}
	for _, c := range clips {
		var dgrams []datagram
		for _, ef := range c.encoded {
			pkts, err := codec.Packetize(ef, clipMTU)
			if err != nil {
				return nil, err
			}
			for _, p := range pkts {
				d := datagram{payload: p.Payload, encrypted: sel.ShouldEncrypt(p.IsIFrame())}
				if d.encrypted {
					// Each session starts at sequence 0, so a datagram's
					// sequence number is its index in the clip.
					cipher.EncryptPacket(uint64(len(dgrams)), d.payload)
				}
				dgrams = append(dgrams, d)
			}
		}
		g.dgrams = append(g.dgrams, dgrams)
	}
	if g.srv, err = transport.NewIngestServer(transport.IngestConfig{Addr: "127.0.0.1:0", Cfg: clips[0].cfg, Alg: pol.Alg, Key: key}); err != nil {
		return nil, err
	}
	if g.conn, err = dialServer(g.srv); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// schedule returns the datagram index session s sends at step i of its
// schedule, and false once the schedule is done. A resumed session
// sends its first half, then the whole clip again from the start.
func (g *ingest) schedule(s, i int) (int, bool) {
	resumed := g.resumed[s]
	n := len(g.dgrams[s%clipsPerRun])
	half := n / 2
	if !resumed {
		return i, i < n
	}
	if i < half {
		return i, true
	}
	return i - half, i-half < n
}

func (g *ingest) op(tr *tracer) error {
	g.base = g.srv.Totals()
	g.sent = 0
	g.ssrcs, g.resumed = g.ssrcs[:0], g.resumed[:0]
	for s := 0; s < ingestSessions; s++ {
		g.ssrcs = append(g.ssrcs, uint32(firstSSRC+g.pass*ingestSessions+s))
		g.resumed = append(g.resumed, g.rng.Bool(resumeFrac))
	}
	g.pass++

	t0 := time.Now()
	done := int64(0) // handled datagrams, as of the last look
	for step, active := 0, true; active; step++ {
		active = false
		for s, ssrc := range g.ssrcs {
			idx, ok := g.schedule(s, step)
			if !ok {
				continue
			}
			active = true
			if g.sent-done >= ingestWindow {
				done = processed(g.srv.Totals(), g.base)
				if g.sent-done >= ingestWindow {
					tr.begin("ingest.window_wait", "bench")
					waitFor(drainTimeout, func() bool {
						done = processed(g.srv.Totals(), g.base)
						return g.sent-done <= ingestWindow/2
					})
					if d := tr.end(); tr != nil {
						g.waited += d
					}
				}
			}
			d := g.dgrams[s%clipsPerRun][idx]
			p := rtp.Packet{
				PayloadType: rtp.PayloadTypeVideo,
				Marker:      d.encrypted,
				Sequence:    uint16(idx),
				Timestamp:   uint32(idx),
				SSRC:        ssrc,
				Payload:     d.payload,
			}
			if _, err := g.conn.Write(p.MarshalInto(g.buf)); err != nil {
				return err
			}
			g.sent++
		}
	}
	if tr != nil {
		g.generator += time.Since(t0)
	}
	tr.begin("transport.drain", "transport")
	waitFor(drainTimeout, func() bool { return processed(g.srv.Totals(), g.base) >= g.sent })
	tr.end()
	t := g.srv.Totals()
	rec := passRecord{
		sent: g.sent, handled: processed(t, g.base),
		packets: t.Packets - g.base.Packets, usable: t.Usable - g.base.Usable, dups: t.Duplicates - g.base.Duplicates,
	}
	g.passes = append(g.passes, rec)
	if rec.handled != rec.sent {
		return fmt.Errorf("server handled %d of %d datagrams", rec.handled, rec.sent)
	}
	return nil
}

// check verifies every session of the pass, compares one sampled
// session's frames byte for byte with the clip, and ends every session
// with a FIN.
func (g *ingest) check() error {
	return errors.Join(g.verify(), g.endSessions())
}

func (g *ingest) verify() error {
	for s, ssrc := range g.ssrcs {
		st, ok := g.srv.SessionStats(ssrc)
		n, dups := len(g.dgrams[s%clipsPerRun]), 0
		if g.resumed[s] {
			dups = n / 2
		}
		if !ok || st.Received != n || st.Usable != n || st.Duplicates != dups || st.Throttled != 0 {
			return fmt.Errorf("session %#x: %+v (resident %v), want %d usable and %d duplicates", ssrc, st, ok, n, dups)
		}
	}
	t := g.srv.Totals()
	if t.BadPackets != g.base.BadPackets || t.Rejected != g.base.Rejected {
		return fmt.Errorf("server refused datagrams: %+v", t)
	}
	s := g.pass % len(g.ssrcs)
	sample := g.ssrcs[s]
	if err := sameMBData(g.srv.SessionFrames(sample, clipFrames), g.clips[s%clipsPerRun].encoded); err != nil {
		return fmt.Errorf("session %#x frames: %w", sample, err)
	}
	return nil
}

func (g *ingest) endSessions() error {
	for _, ssrc := range g.ssrcs {
		if _, err := g.conn.Write(finDatagram(ssrc)); err != nil {
			return err
		}
	}
	if !waitFor(drainTimeout, func() bool { return g.srv.ActiveSessions() == 0 }) {
		return fmt.Errorf("%d sessions still resident after FIN", g.srv.ActiveSessions())
	}
	return nil
}

// probe batch-times the steps of the server's packet path on the
// clips' datagrams: parse, decrypt and reassembly. One call costs too
// little to time alone, so each span covers every datagram of the run's
// clips.
func (g *ingest) probe(tr *tracer) error {
	var wire, plain [][]byte
	for _, dgrams := range g.dgrams {
		for i, d := range dgrams {
			p := rtp.Packet{PayloadType: rtp.PayloadTypeVideo, Marker: d.encrypted, Sequence: uint16(i), SSRC: firstSSRC, Payload: d.payload}
			wire = append(wire, p.Marshal())
			plain = append(plain, nil)
		}
	}
	for rep := 0; rep < 100; rep++ {
		tr.begin("rtp.Parse", "rtp")
		for _, w := range wire {
			if _, err := rtp.Parse(w); err != nil {
				tr.end()
				return err
			}
		}
		tr.end()
	}

	cipher, err := vcrypt.NewCipher(vcrypt.AES256, keyFor(vcrypt.AES256))
	if err != nil {
		return err
	}
	for rep := 0; rep < 10; rep++ {
		k := 0
		for _, dgrams := range g.dgrams {
			for _, d := range dgrams {
				plain[k] = append(plain[k][:0], d.payload...)
				k++
			}
		}
		tr.begin("vcrypt.DecryptPacket", "vcrypt")
		k = 0
		for _, dgrams := range g.dgrams {
			for i, d := range dgrams {
				if d.encrypted {
					cipher.DecryptPacket(uint64(i), plain[k])
				}
				k++
			}
		}
		tr.end()
	}

	for rep := 0; rep < 10; rep++ {
		asms := make([]*codec.Reassembler, len(g.clips))
		for i, c := range g.clips {
			if asms[i], err = codec.NewReassembler(c.cfg); err != nil {
				return err
			}
		}
		m0 := mallocs()
		tr.begin("codec.Reassembler.Add", "codec")
		k := 0
		for i, dgrams := range g.dgrams {
			for range dgrams {
				if err := asms[i].Add(plain[k]); err != nil {
					tr.end()
					return err
				}
				k++
			}
		}
		tr.end()
		g.reassembleAllocs = append(g.reassembleAllocs, float64(mallocs()-m0))
		for i, c := range g.clips {
			if err := sameMBData(asms[i].Frames(clipFrames), c.encoded); err != nil {
				return fmt.Errorf("reassembly probe: %w", err)
			}
		}
	}
	return nil
}

func (g *ingest) layerMetrics(tr *tracer, st *loopStats, out metrics) {
	var n, encrypted float64
	for _, dgrams := range g.dgrams {
		for _, d := range dgrams {
			n++
			if d.encrypted {
				encrypted++
			}
		}
	}
	out["rtp.parse_ns_per_pkt"] = median(tr.durations("rtp.Parse")) * 1e9 / n
	out["vcrypt.decrypt_ns_per_pkt"] = median(tr.durations("vcrypt.DecryptPacket")) * 1e9 / encrypted
	out["codec.reassemble_ns_per_pkt"] = median(tr.durations("codec.Reassembler.Add")) * 1e9 / n
	out["codec.reassemble_allocs_per_pkt"] = median(g.reassembleAllocs) / n

	// Ratios over the measured passes, traced or not.
	var sum passRecord
	for _, p := range g.passes[len(g.passes)-len(st.ops):] {
		sum.sent += p.sent
		sum.handled += p.handled
		sum.packets += p.packets
		sum.usable += p.usable
		sum.dups += p.dups
	}
	var wall, cpu time.Duration
	for _, o := range st.ops {
		wall += o.wall
		cpu += o.cpu
	}
	handled := float64(sum.handled)
	out["transport.ingest_allocs_per_pkt"] = float64(st.mallocs) / handled
	out["transport.ingest_usable_frac"] = float64(sum.usable) / float64(sum.packets)
	out["transport.ingest_dup_frac"] = float64(sum.dups) / handled
	out["transport.ingest_drop_frac"] = float64(sum.sent-sum.handled) / float64(sum.sent)
	out["ingest.window_wait_frac"] = g.waited.Seconds() / g.generator.Seconds()
	out["ingest.pkts_per_s"] = handled / wall.Seconds()
	out["ingest.cpu_us_per_pkt"] = us(cpu) / handled
}

func (g *ingest) close() {
	if g.conn != nil {
		g.conn.Close()
	}
	if g.srv != nil {
		g.srv.Close()
	}
}
