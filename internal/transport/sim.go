package transport

import (
	"fmt"
	"sort"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/ledger"
	"repro/internal/vcrypt"
)

// RunUDP executes the session over the simulated medium with RTP/UDP
// semantics: every packet is transmitted once by the sender's MAC (with
// collision retries inside the medium model); losses at the receiver are
// final. Real ciphers run over the real bitstream, so the receiver and
// eavesdropper reconstructions are genuine decodes of what each party
// could recover.
func RunUDP(s Session, seed uint64) (*Result, error) {
	return runSim(s, seed, false)
}

// TCPRetransmitDelay approximates the extra sender-side delay per
// retransmission round under TCP (fast retransmit / thin-stream RTO on a
// local WiFi RTT).
const TCPRetransmitDelay = 15e-3

// RunHTTP executes the session over the simulated medium with HTTP/TCP
// semantics (Section 6.4): delivery to the receiver is reliable (segments
// are retransmitted until received), which raises latency; the
// eavesdropper may capture any transmission attempt. The Marker-bit
// convention moves into the segment header, which the simulation treats
// identically.
func RunHTTP(s Session, seed uint64) (*Result, error) {
	return runSim(s, seed, true)
}

// workItem is one packet offered to the sender queue: a video slice or an
// audio frame.
type workItem struct {
	arrival  float64
	payload  []byte
	isIFrame bool
	isAudio  bool
	frameNum int // video display number or audio frame sequence
}

func runSim(s Session, seed uint64, tcp bool) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Medium == nil {
		return nil, fmt.Errorf("transport: simulated run needs a Medium")
	}
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return nil, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return nil, err
	}
	// The ledger is a side artifact: emissions are non-blocking and the
	// sim's deterministic outputs do not depend on whether one is
	// installed.
	ledger.Emit(ledger.EventPolicy, "sim", 0, 0, s.Policy.Name())
	gap := s.DiskReadGap
	if gap == 0 {
		gap = DefaultDiskReadGap
	}
	s.Medium.Reseed(seed)
	meter := energy.NewMeter(s.Device)
	rxAsm, err := codec.NewReassembler(s.Config)
	if err != nil {
		return nil, err
	}
	evAsm, err := codec.NewReassembler(s.Config)
	if err != nil {
		return nil, err
	}

	// Build the producer's work list: video slices on the frame-capture
	// schedule, audio frames (if any) on their 20 ms cadence, merged by
	// arrival time. In unpaced mode everything is read back to back.
	var items []workItem
	for fi, ef := range s.Encoded {
		if ef == nil {
			return nil, fmt.Errorf("transport: nil encoded frame %d", fi)
		}
		pkts, err := codec.Packetize(ef, s.MTU)
		if err != nil {
			return nil, err
		}
		frameTime := float64(fi) / s.FPS
		for pi, pkt := range pkts {
			// Packetize allocates each payload exactly once for this work
			// list; padding grows it in place (or with a single realloc),
			// replacing the old copy-then-pad-with-make double allocation.
			payload := pkt.Payload
			if s.PadToMTU && len(payload) < s.MTU {
				payload = zeroPad(payload, s.MTU-len(payload))
			}
			items = append(items, workItem{
				arrival:  frameTime + float64(pi)*gap,
				payload:  payload,
				isIFrame: pkt.IsIFrame(),
				frameNum: pkt.FrameNumber,
			})
		}
	}
	var audioFrames []audio.Frame
	if s.Audio != nil {
		audioFrames, err = audio.Encode(s.Audio)
		if err != nil {
			return nil, err
		}
		for _, af := range audioFrames {
			items = append(items, workItem{
				arrival:  float64(af.Seq) * audio.FrameDuration,
				payload:  append([]byte(nil), af.Data...),
				isAudio:  true,
				frameNum: af.Seq,
			})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].arrival < items[j].arrival })
	if s.Unpaced {
		for i := range items {
			items[i].arrival = float64(i) * gap
		}
	}

	rxAudio := make([]audio.Frame, len(audioFrames))
	evAudio := make([]audio.Frame, len(audioFrames))
	copy(rxAudio, audioFrames)
	copy(evAudio, audioFrames)
	for i := range rxAudio {
		rxAudio[i].Data, evAudio[i].Data = nil, nil
	}

	var records []PacketRecord
	var serverFree float64
	var nEncrypted, nLost int
	for seq, it := range items {
		arrival := it.arrival
		// Audio rides fully encrypted whenever the session encrypts at
		// all (the paper's "all of it can be encrypted" expectation);
		// video follows the policy's selection rule.
		var encrypt bool
		if it.isAudio {
			encrypt = s.Policy.Mode != vcrypt.ModeNone
		} else {
			encrypt = selector.ShouldEncrypt(it.isIFrame)
		}

		// The consumer thread serves packets FIFO.
		start := arrival
		if serverFree > start {
			start = serverFree
		}
		var encTime float64
		payload := it.payload
		if encrypt {
			span := len(payload)
			if !it.isAudio {
				span = s.Policy.EncryptSpan(len(payload))
			}
			encTime, err = s.Device.EncryptTime(s.Policy.Alg, span)
			if err != nil {
				return nil, err
			}
			// The work list is consumed exactly once, so the payload is
			// encrypted in place: the eavesdropper branch below only ever
			// reads plaintext packets, which this branch never touches.
			cipher.EncryptPacket(uint64(seq), payload[:span])
			nEncrypted++
			meter.AddCrypto(encTime)
			if span < len(payload) {
				ledger.Emit(ledger.EventHeaderOnly, "sim", uint64(seq), uint64(span), "")
			}
		} else {
			ledger.Emit(ledger.EventPlainPacket, "sim", uint64(seq), uint64(len(payload)), "")
		}
		rep, err := s.Medium.Transmit(len(payload))
		if err != nil {
			return nil, err
		}
		attempts, backoff, airtime := rep.Attempts, rep.Backoff, rep.Airtime
		receiverGot, eavesGot := rep.ReceiverGot, rep.EavesGot
		if tcp {
			// Reliable delivery: keep retransmitting until the receiver
			// decodes the segment. Each extra round costs a retransmission
			// delay plus channel time, and gives the eavesdropper another
			// chance to overhear.
			extraRounds := 0
			for !receiverGot {
				extraRounds++
				if extraRounds > 1000 {
					return nil, fmt.Errorf("transport: receiver error rate too high for TCP")
				}
				rep2, err := s.Medium.Transmit(len(payload))
				if err != nil {
					return nil, err
				}
				attempts += rep2.Attempts
				backoff += rep2.Backoff + TCPRetransmitDelay
				airtime += rep2.Airtime
				receiverGot = rep2.ReceiverGot
				eavesGot = eavesGot || rep2.EavesGot
			}
		}
		depart := start + encTime + backoff + airtime
		serverFree = depart
		meter.AddTx(airtime)

		rec := PacketRecord{
			Seq:          seq,
			FrameNumber:  it.frameNum,
			IFrame:       it.isIFrame,
			Audio:        it.isAudio,
			Encrypted:    encrypt,
			Size:         len(payload),
			Arrival:      arrival,
			ServiceStart: start,
			Departure:    depart,
			EncryptTime:  encTime,
			Backoff:      backoff,
			Airtime:      airtime,
			Attempts:     attempts,
			ReceiverGot:  receiverGot,
			EavesGot:     eavesGot,
		}
		records = append(records, rec)

		// Receiver path: decrypt flagged packets, reassemble. Video
		// payloads are opened in place: the work list is consumed once
		// and the eavesdropper below only reads plaintext packets, which
		// opening leaves untouched. Audio frames are retained and keep
		// their own copy.
		if receiverGot {
			if it.isAudio {
				rx := append([]byte(nil), payload...)
				if encrypt {
					cipher.DecryptPacket(uint64(seq), rx)
				}
				rxAudio[it.frameNum].Data = rx
			} else if !openPacket(rxAsm, cipher, s.Policy.HeaderOnlyBytes, uint64(seq), encrypt, payload) {
				// A receive-side parse failure is data loss, not a
				// harness error.
				nLost++
			}
		} else {
			nLost++
		}
		// Eavesdropper path: the keyless receiver, for which captured
		// ciphertext is an erasure.
		if eavesGot {
			if !it.isAudio {
				openPacket(evAsm, nil, 0, uint64(seq), encrypt, it.payload)
			} else if !encrypt {
				evAudio[it.frameNum].Data = append([]byte(nil), it.payload...)
			}
		}
	}

	res := &Result{Records: records}
	playout := float64(len(s.Encoded)) / s.FPS
	res.Duration = playout
	if s.Unpaced {
		res.Duration = 0 // an upload lasts only as long as the transfer
	}
	if n := len(records); n > 0 {
		last := records[n-1].Departure
		if last > res.Duration {
			res.Duration = last
		}
		var w, so, sv float64
		for _, r := range records {
			w += r.Wait()
			so += r.Sojourn()
			sv += r.Sojourn() - r.Wait()
		}
		res.MeanWait = w / float64(n)
		res.MeanSojourn = so / float64(n)
		res.MeanService = sv / float64(n)
		res.EncryptedFraction = float64(nEncrypted) / float64(n)
		res.ReceiverLossRate = float64(nLost) / float64(n)
	}
	res.ReceiverFrames = rxAsm.Frames(len(s.Encoded))
	res.EavesFrames = evAsm.Frames(len(s.Encoded))
	if s.Audio != nil {
		res.ReceiverAudio = rxAudio
		res.EavesAudio = evAudio
	}
	power, err := meter.AveragePower(res.Duration)
	if err != nil {
		return nil, err
	}
	res.AveragePowerW = power
	res.EnergyJ = meter.EnergyJoules()
	return res, nil
}
