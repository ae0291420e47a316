package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/evalvid"
	"repro/internal/rtp"
	"repro/internal/transport"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// upload is the paper's scenario on live sockets. One op encodes a raw
// clip (cycling through the run's clips), sends it unpaced with transport.LiveUDPSend (policy I, AES256)
// to a keyed IngestServer and, as the broadcast eavesdropper, to a
// keyless one, waits until the keyed server has counted every packet,
// and decodes what it reassembled.
type upload struct {
	clips        []*clip
	refs         [][]*video.Frame // decode of each clip's set-up encode
	sess         transport.Session
	rx, ev       *transport.IngestServer
	rxFin, evFin *net.UDPConn
	evBase       transport.IngestTotals // eavesdropper counters before the op

	// The last op's clip index and outputs, for check.
	n       int
	encoded []*codec.EncodedFrame
	sent    transport.LiveSendReport
	frames  []*codec.EncodedFrame
	decoded []*video.Frame

	// Traced ops only.
	encAllocs uint64
	reports   []transport.LiveSendReport
}

const (
	// uploadSSRC is the SSRC LiveUDPSend stamps on every packet.
	uploadSSRC = 0x7561
	// maxEavesdropperPSNR is the confidentiality target: the keyless
	// eavesdropper's decode must stay at or below it.
	maxEavesdropperPSNR = 20
	// drainTimeout bounds every wait for a server to catch up.
	drainTimeout = 5 * time.Second
)

func newUpload(seed uint64) (workload, error) {
	clips, err := newClips(seed, true)
	if err != nil {
		return nil, err
	}
	u := &upload{clips: clips}
	for _, c := range clips {
		ref, err := codec.DecodeSequence(c.encoded, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("decode clip: %w", err)
		}
		u.refs = append(u.refs, ref)
	}
	c := clips[0]
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	key := keyFor(pol.Alg)
	u.sess = transport.Session{
		Config: c.cfg, FPS: clipFPS, MTU: clipMTU, Policy: pol, Key: key,
		Device: energy.SamsungGalaxySII(), Unpaced: true,
	}
	if u.rx, err = transport.NewIngestServer(transport.IngestConfig{Addr: "127.0.0.1:0", Cfg: c.cfg, Alg: pol.Alg, Key: key}); err != nil {
		return nil, err
	}
	if u.ev, err = transport.NewIngestServer(transport.IngestConfig{Addr: "127.0.0.1:0", Cfg: c.cfg, Alg: pol.Alg}); err != nil {
		u.close()
		return nil, err
	}
	if u.rxFin, err = dialServer(u.rx); err == nil {
		u.evFin, err = dialServer(u.ev)
	}
	if err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

func (u *upload) op(tr *tracer) error {
	u.encoded, u.frames, u.decoded = nil, nil, nil
	c := u.clips[u.n%len(u.clips)]
	base := u.rx.Totals()
	u.evBase = u.ev.Totals()
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	tr.begin("codec.EncodeSequence", "codec")
	encoded, err := codec.EncodeSequence(c.raw, c.cfg)
	tr.end()
	if tr != nil {
		u.encAllocs += mallocs() - m0
	}
	if err != nil {
		return err
	}
	u.encoded = encoded
	s := u.sess
	s.Encoded = encoded
	tr.begin("transport.LiveUDPSend", "transport")
	u.sent, err = transport.LiveUDPSend(s, u.rx.Addr(), u.ev.Addr(), false)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("transport.drain", "transport")
	ok := waitFor(drainTimeout, func() bool { return processed(u.rx.Totals(), base) >= int64(u.sent.Packets) })
	tr.end()
	if !ok {
		return fmt.Errorf("keyed server handled %d of %d packets", processed(u.rx.Totals(), base), u.sent.Packets)
	}
	u.frames = u.rx.SessionFrames(uploadSSRC, len(encoded))
	tr.begin("codec.DecodeSequence", "codec")
	u.decoded, err = codec.DecodeSequence(u.frames, c.cfg)
	tr.end()
	if tr != nil {
		u.reports = append(u.reports, u.sent)
	}
	return err
}

// check verifies the op, then ends the session on both servers with a
// FIN: LiveUDPSend restarts at sequence 0, so without it the next op
// would land as duplicates.
func (u *upload) check() error {
	err := errors.Join(u.verify(u.clips[u.n%len(u.clips)], u.refs[u.n%len(u.clips)]), u.endSession())
	u.n++
	return err
}

func (u *upload) verify(c *clip, ref []*video.Frame) error {
	if u.decoded == nil {
		return nil // the op failed and reported why
	}
	st, ok := u.rx.SessionStats(uploadSSRC)
	switch {
	case !ok:
		return fmt.Errorf("keyed server has no session")
	case st.Duplicates != 0:
		return fmt.Errorf("keyed server saw %d duplicates", st.Duplicates)
	case st.Received != u.sent.Packets || st.Usable != u.sent.Packets:
		return fmt.Errorf("keyed server: %d received, %d usable of %d sent", st.Received, st.Usable, u.sent.Packets)
	}
	if err := sameMBData(u.encoded, c.encoded); err != nil {
		return fmt.Errorf("encode is not deterministic: %w", err)
	}
	if err := sameMBData(u.frames, u.encoded); err != nil {
		return fmt.Errorf("keyed server reassembly: %w", err)
	}
	if err := sameFrames(u.decoded, ref); err != nil {
		return err
	}
	if !waitFor(drainTimeout, func() bool { return processed(u.ev.Totals(), u.evBase) >= int64(u.sent.Packets) }) {
		return fmt.Errorf("eavesdropper handled %d of %d packets", processed(u.ev.Totals(), u.evBase), u.sent.Packets)
	}
	// A keyless decode conceals the encrypted slices; its error is the
	// expected damage, not a failure.
	evDecoded, _ := codec.DecodeSequence(u.ev.SessionFrames(uploadSSRC, clipFrames), c.cfg)
	q, err := evalvid.Evaluate(ref, evDecoded)
	if err != nil {
		return err
	}
	if q.PSNR > maxEavesdropperPSNR {
		return fmt.Errorf("eavesdropper PSNR %.2f dB above %d dB", q.PSNR, maxEavesdropperPSNR)
	}
	return nil
}

func (u *upload) endSession() error {
	fin := finDatagram(uploadSSRC)
	if _, err := u.rxFin.Write(fin); err != nil {
		return err
	}
	if _, err := u.evFin.Write(fin); err != nil {
		return err
	}
	if !waitFor(drainTimeout, func() bool { return u.rx.ActiveSessions() == 0 && u.ev.ActiveSessions() == 0 }) {
		return fmt.Errorf("session still resident after FIN")
	}
	return nil
}

// probe times PacketizeInto over the run's clips, the packetizer
// LiveUDPSend runs inside its send loop.
func (u *upload) probe(tr *tracer) error {
	pool := codec.NewBufPool()
	var wps []codec.WirePacket
	for rep := 0; rep < 20; rep++ {
		tr.begin("codec.PacketizeInto", "codec")
		for _, c := range u.clips {
			for _, ef := range c.encoded {
				var err error
				wps, err = codec.PacketizeInto(ef, clipMTU, rtp.HeaderSize, pool, wps[:0])
				if err != nil {
					tr.end()
					return err
				}
				for i := range wps {
					pool.Put(&wps[i])
				}
			}
		}
		tr.end()
	}
	return nil
}

func (u *upload) layerMetrics(tr *tracer, _ *loopStats, out metrics) {
	n := float64(len(tr.durations("op")))
	var pkts, encrypted float64
	var crypto time.Duration
	for _, r := range u.reports {
		pkts += float64(r.Packets)
		encrypted += float64(r.Encrypted)
		crypto += r.CryptoTime
	}
	encode, send := tr.total("codec.EncodeSequence"), tr.total("transport.LiveUDPSend")
	drain, decode := tr.total("transport.drain"), tr.total("codec.DecodeSequence")
	op := tr.total("op")
	frames := n * clipFrames
	out["codec.encode_ms_per_frame"] = ms(encode) / frames
	out["codec.encode_allocs_per_frame"] = float64(u.encAllocs) / frames
	out["codec.decode_ms_per_frame"] = ms(decode) / frames
	out["codec.packetize_into_us_per_frame"] = median(tr.durations("codec.PacketizeInto")) * 1e6 / (clipsPerRun * clipFrames)
	out["transport.send_us_per_pkt"] = us(send) / pkts
	out["transport.drain_ms"] = ms(drain) / n
	out["vcrypt.encrypt_us_per_pkt"] = us(crypto) / encrypted
	out["vcrypt.encrypted_frac"] = encrypted / pkts
	// The stage rows and the remainder add up to the op total.
	out["upload.op_ms"] = ms(op) / n
	out["upload.encode_ms"] = ms(encode) / n
	out["upload.send_ms"] = ms(send) / n
	out["upload.decode_ms"] = ms(decode) / n
	out["upload.unaccounted_ms"] = ms(op-encode-send-drain-decode) / n
}

func (u *upload) close() {
	for _, c := range []*net.UDPConn{u.rxFin, u.evFin} {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range []*transport.IngestServer{u.rx, u.ev} {
		if s != nil {
			s.Close()
		}
	}
}
