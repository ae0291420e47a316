package main

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vcrypt"
	"repro/internal/wifi"
)

// simulate is the simulated 802.11g testbed behind the figures and
// `thriftyvid simulate`: one op is one transport.RunUDP of an encoded
// clip under one of the 12 standard policies, on a fresh medium built as
// the CLI builds it and seeded with the run's seed. Ops cycle through
// every (clip, policy) pair.
type simulate struct {
	clips []*clip
	seed  uint64
	keys  map[vcrypt.Algorithm][]byte
	pkts  []int // packets per clip at clipMTU

	next int // index of the next op in the cycle
	last *transport.Result
	ref  map[int]float64 // MeanSojourn by cycle index, from the first run

	simTime     map[vcrypt.Algorithm][]float64 // traced RunUDP seconds
	simAllocs   []float64
	encryptTime map[vcrypt.Algorithm][]float64 // probe seconds per clip
}

func newSimulate(seed uint64) (workload, error) {
	clips, err := newClips(seed, false)
	if err != nil {
		return nil, err
	}
	s := &simulate{
		clips: clips, seed: seed, keys: map[vcrypt.Algorithm][]byte{}, ref: map[int]float64{},
		simTime: map[vcrypt.Algorithm][]float64{}, encryptTime: map[vcrypt.Algorithm][]float64{},
	}
	for _, pol := range standardPolicies {
		s.keys[pol.Alg] = keyFor(pol.Alg)
	}
	for _, c := range clips {
		n := 0
		for _, ef := range c.encoded {
			pkts, err := codec.Packetize(ef, clipMTU)
			if err != nil {
				return nil, err
			}
			n += len(pkts)
		}
		s.pkts = append(s.pkts, n)
	}
	return s, nil
}

// simulateCycle is the number of (clip, policy) pairs.
var simulateCycle = clipsPerRun * len(standardPolicies)

// pair maps a cycle index to its clip and policy indices.
func pair(i int) (clip, policy int) {
	i %= simulateCycle
	return i / len(standardPolicies), i % len(standardPolicies)
}

// buildMedium builds the CLI's default medium: the DefaultNetwork cell
// on 802.11g.
func buildMedium(seed uint64) (*wifi.Medium, error) {
	net := core.DefaultNetwork()
	params := wifi.NewDefaultDCF(net.Stations)
	dcf, err := wifi.SolveDCF(params)
	if err != nil {
		return nil, err
	}
	phy := wifi.PHY80211g()
	med := wifi.NewMedium(phy, net.Rate, dcf, wifi.BackoffRate(params, dcf, phy.SlotTime), stats.NewRNG(seed))
	med.ReceiverError = net.ReceiverError
	med.EavesdropperError = net.EavesdropperError
	return med, nil
}

func (s *simulate) op(tr *tracer) error {
	s.last = nil
	ci, pi := pair(s.next)
	c, pol := s.clips[ci], standardPolicies[pi]
	med, err := buildMedium(s.seed)
	if err != nil {
		return err
	}
	sess := transport.Session{
		Config: c.cfg, Encoded: c.encoded, FPS: clipFPS, MTU: clipMTU,
		Policy: pol, Key: s.keys[pol.Alg], Device: energy.SamsungGalaxySII(), Medium: med,
	}
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	tr.begin("transport.RunUDP", "transport")
	res, err := transport.RunUDP(sess, s.seed)
	d := tr.end()
	if tr != nil {
		s.simAllocs = append(s.simAllocs, float64(mallocs()-m0))
		s.simTime[pol.Alg] = append(s.simTime[pol.Alg], d.Seconds())
	}
	s.last = res
	return err
}

// check requires every (clip, policy) run to be identical to its first
// run for the same seed.
func (s *simulate) check() error {
	i := s.next % simulateCycle
	s.next++
	if s.last == nil {
		return nil // the op failed and reported why
	}
	ci, pi := pair(i)
	name := fmt.Sprintf("clip %d %s", ci, standardPolicies[pi].Name())
	if n := len(s.last.Records); n != s.pkts[ci] {
		return fmt.Errorf("%s: %d packet records, want %d", name, n, s.pkts[ci])
	}
	want, ok := s.ref[i]
	if !ok {
		s.ref[i] = s.last.MeanSojourn
		return nil
	}
	if s.last.MeanSojourn != want {
		return fmt.Errorf("%s: mean sojourn %v, first run %v", name, s.last.MeanSojourn, want)
	}
	return nil
}

// probe times the allocating packetizer RunUDP calls and, per
// algorithm, the per-packet cipher over the clips' packets.
func (s *simulate) probe(tr *tracer) error {
	var payloads [][]byte
	for rep := 0; rep < 20; rep++ {
		payloads = payloads[:0]
		tr.begin("codec.Packetize", "codec")
		for _, c := range s.clips {
			for _, ef := range c.encoded {
				pkts, err := codec.Packetize(ef, clipMTU)
				if err != nil {
					tr.end()
					return err
				}
				for _, p := range pkts {
					payloads = append(payloads, p.Payload)
				}
			}
		}
		tr.end()
	}
	for _, alg := range []vcrypt.Algorithm{vcrypt.AES128, vcrypt.AES256, vcrypt.TripleDES} {
		cipher, err := vcrypt.NewCipher(alg, s.keys[alg])
		if err != nil {
			return err
		}
		for rep := 0; rep < 5; rep++ {
			tr.begin("vcrypt.EncryptPacket", "vcrypt")
			for i, p := range payloads {
				cipher.EncryptPacket(uint64(i), p)
			}
			s.encryptTime[alg] = append(s.encryptTime[alg], tr.end().Seconds())
		}
	}
	return nil
}

func (s *simulate) layerMetrics(tr *tracer, _ *loopStats, out metrics) {
	pkts := 0
	for _, n := range s.pkts {
		pkts += n
	}
	for alg, suffix := range map[vcrypt.Algorithm]string{vcrypt.AES128: "aes128", vcrypt.AES256: "aes256", vcrypt.TripleDES: "3des"} {
		out["transport.sim_ms."+suffix] = mean(s.simTime[alg]) * 1e3
		out["vcrypt.encrypt_ns_per_pkt."+suffix] = median(s.encryptTime[alg]) * 1e9 / float64(pkts)
	}
	out["transport.sim_allocs_per_run"] = mean(s.simAllocs)
	out["codec.packetize_us_per_frame"] = median(tr.durations("codec.Packetize")) * 1e6 / (clipsPerRun * clipFrames)
}

func (s *simulate) close() {}
