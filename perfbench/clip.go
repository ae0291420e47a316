package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// Every workload streams the same kind of clip: CIF, 60 frames, GOP 30,
// medium motion, synthesized from the run's seed and encoded with one
// codec worker per CPU (the CLI default), then packetized at MTU 1400.
const (
	clipFrames = 60
	clipGOP    = 30
	clipFPS    = 30
	clipMTU    = 1400
)

// clipsPerRun is how many clips upload, ingest and simulate cycle
// through. The encoded size of a synthesized scene varies by about 15%
// from seed to seed, so with one clip per run the scene, not the code,
// would set a run's figures.
const clipsPerRun = 4

// standardPolicies are the paper's 12 policies (3 algorithms x 4 modes).
var standardPolicies = vcrypt.StandardPolicies()

// clip is the raw and encoded form of one seed's clip.
type clip struct {
	cfg     codec.Config
	raw     []*video.Frame // nil unless the workload encodes in its ops
	encoded []*codec.EncodedFrame
}

// newClip synthesizes and encodes one clip. Only upload encodes in its
// ops; the other workloads drop the raw frames, as a process serving
// encoded video would, so they do not inflate its heap.
func newClip(seed uint64, keepRaw bool) (*clip, error) {
	raw := video.Generate(video.SceneConfig{
		W: video.CIFWidth, H: video.CIFHeight, Frames: clipFrames, Motion: video.MotionMedium, Seed: seed,
	})
	cfg := codec.DefaultConfig(clipGOP)
	cfg.Workers = runtime.NumCPU()
	encoded, err := codec.EncodeSequence(raw, cfg)
	if err != nil {
		return nil, fmt.Errorf("encode clip: %w", err)
	}
	c := &clip{cfg: cfg, encoded: encoded}
	if keepRaw {
		c.raw = raw
	}
	return c, nil
}

// newClips synthesizes a run's clips: clip i from seed*clipsPerRun+i.
func newClips(seed uint64, keepRaw bool) ([]*clip, error) {
	clips := make([]*clip, clipsPerRun)
	for i := range clips {
		c, err := newClip(seed*clipsPerRun+uint64(i), keepRaw)
		if err != nil {
			return nil, err
		}
		clips[i] = c
	}
	return clips, nil
}

// keyFor derives the benchmark's fixed key for an algorithm.
func keyFor(alg vcrypt.Algorithm) []byte {
	var key []byte
	sum := sha256.Sum256([]byte("perfbench:" + alg.String()))
	for len(key) < alg.KeySize() {
		key = append(key, sum[:]...)
		sum = sha256.Sum256(sum[:])
	}
	return key[:alg.KeySize()]
}

// sameMBData reports how got differs from want, frame by frame and
// macroblock by macroblock; nil means byte-identical.
func sameMBData(got, want []*codec.EncodedFrame) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d frames, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g == nil {
			return fmt.Errorf("frame %d missing", i)
		}
		if g.Number != w.Number || g.Type != w.Type || len(g.MBData) != len(w.MBData) {
			return fmt.Errorf("frame %d header differs", i)
		}
		for j := range w.MBData {
			if !bytes.Equal(g.MBData[j], w.MBData[j]) {
				return fmt.Errorf("frame %d macroblock %d differs", i, j)
			}
		}
	}
	return nil
}

// sameFrames reports whether two decoded clips are pixel-identical.
func sameFrames(got, want []*video.Frame) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d frames, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g == nil || !bytes.Equal(g.Y, w.Y) || !bytes.Equal(g.Cb, w.Cb) || !bytes.Equal(g.Cr, w.Cr) {
			return fmt.Errorf("decoded frame %d differs", i)
		}
	}
	return nil
}

// pollInterval is how long a waiting loop sleeps between looks at the
// server's counters; sleeping keeps the waiting goroutine off the CPU so
// process CPU counts the program's work.
const pollInterval = 50 * time.Microsecond

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollInterval)
	}
	return true
}

// finDatagram is the ingest server's session teardown message: "TVFN"
// then the SSRC, big endian.
func finDatagram(ssrc uint32) []byte {
	return []byte{'T', 'V', 'F', 'N', byte(ssrc >> 24), byte(ssrc >> 16), byte(ssrc >> 8), byte(ssrc)}
}

// dialServer opens a client socket to an ingest server.
func dialServer(srv *transport.IngestServer) (*net.UDPConn, error) {
	addr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, addr)
}

// processed counts the datagrams a server has finished handling since
// base, whatever their fate.
func processed(t, base transport.IngestTotals) int64 {
	return t.Packets + t.Duplicates + t.Throttled + t.Rejected + t.BadPackets -
		(base.Packets + base.Duplicates + base.Throttled + base.Rejected + base.BadPackets)
}
