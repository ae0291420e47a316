package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
)

// The live backend mirrors the simulated pipeline over real sockets: the
// sender unicasts every RTP packet to the legitimate receiver and to the
// eavesdropper's socket (standing in for the broadcast nature of open
// WiFi, where tcpdump on a nearby device captures the same frames), each
// endpoint applies its own netem loss filter, and only the receiver can
// decrypt marked payloads.

// LiveSendReport summarises a live transmission.
type LiveSendReport struct {
	Packets     int
	Encrypted   int
	Bytes       int
	Elapsed     time.Duration
	CryptoTime  time.Duration // wall time spent inside the cipher
	Retransmits int           // NACK-driven I-frame retransmissions (reliable mode)
	Dropped     int           // packets the sender-side conditioner discarded
	Duplicated  int           // extra copies the conditioner injected
}

// udpSender is the per-packet send step LiveUDPSend and
// LiveUDPSendReliable share: pad → select → marshal → encrypt the span →
// ledger → count. Each sender still writes the sealed bytes and releases
// or retains the packet's pooled buffer in its own body.
type udpSender struct {
	s        Session
	source   string // ledger source: "udp" or "udp-reliable"
	cipher   *vcrypt.Cipher
	selector *vcrypt.Selector
	seqr     *rtp.Sequencer
	rep      LiveSendReport
}

func newUDPSender(s Session, source string) (*udpSender, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return nil, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return nil, err
	}
	ledger.Emit(ledger.EventPolicy, source, 0, 0, s.Policy.Name())
	// Both senders use the same arbitrary SSRC.
	return &udpSender{s: s, source: source, cipher: cipher, selector: selector, seqr: rtp.NewSequencer(0x7561)}, nil
}

// pace holds frame fi until its capture time, precomputing the
// keystream of its n packets meanwhile, so by release time EncryptPacket
// is a single XOR pass over cached keystream.
func (u *udpSender) pace(start time.Time, fi int, seq uint64, n int) {
	due := start.Add(time.Duration(float64(fi) / u.s.FPS * float64(time.Second)))
	if d := time.Until(due); d > 0 {
		go u.cipher.Prefetch(seq, n, u.s.MTU)
		time.Sleep(d)
	}
}

// seal turns packet seq of frame fi into its wire datagram, in the
// packet's own pooled buffer, counts it, and returns the bytes to send.
func (u *udpSender) seal(pkt *codec.WirePacket, fi int, seq uint64) []byte {
	s := &u.s
	payload := pkt.Payload
	if s.PadToMTU && len(payload) < s.MTU {
		payload = zeroPad(payload, s.MTU-len(payload))
	}
	encrypted := u.selector.ShouldEncrypt(pkt.IsIFrame())
	// Marshal first — the RTP header lands in the buffer's headroom, the
	// payload already aliases the rest — then encrypt the payload region
	// in place: same wire bytes as encrypt-then-marshal, zero copies.
	out := u.seqr.Next(payload, float64(fi)/s.FPS, encrypted).MarshalInto(pkt.Wire(len(payload)))
	if encrypted {
		t0 := time.Now()
		u.cipher.EncryptPacket(seq, out[rtp.HeaderSize:][:s.Policy.EncryptSpan(len(payload))])
		u.rep.CryptoTime += time.Since(t0)
		u.rep.Encrypted++
		mUDPEncrypted.Inc()
		if span := s.Policy.EncryptSpan(len(payload)); span < len(payload) {
			ledger.Emit(ledger.EventHeaderOnly, u.source, seq, uint64(span), "")
		}
	} else {
		ledger.Emit(ledger.EventPlainPacket, u.source, seq, uint64(len(payload)), "")
	}
	u.rep.Packets++
	u.rep.Bytes += len(out)
	mUDPPacketsSent.Inc()
	mUDPBytesSent.Add(int64(len(out)))
	return out
}

// LiveUDPSend streams the session's packets to the receiver and
// eavesdropper addresses. With pace=true packets are released on the
// frame-capture schedule (real-time streaming); otherwise back to back
// (file upload).
func LiveUDPSend(s Session, rxAddr, evAddr string, pace bool) (LiveSendReport, error) {
	u, err := newUDPSender(s, "udp")
	if err != nil {
		return LiveSendReport{}, err
	}
	rxConn, err := net.Dial("udp", rxAddr)
	if err != nil {
		return u.rep, fmt.Errorf("transport: dial receiver: %w", err)
	}
	defer rxConn.Close()
	var evConn net.Conn
	if evAddr != "" {
		evConn, err = net.Dial("udp", evAddr)
		if err != nil {
			return u.rep, fmt.Errorf("transport: dial eavesdropper: %w", err)
		}
		defer evConn.Close()
	}
	pool := codec.NewBufPool()
	var wps []codec.WirePacket
	start := time.Now()
	var seq uint64
	for fi, ef := range s.Encoded {
		wps, err = codec.PacketizeInto(ef, s.MTU, rtp.HeaderSize, pool, wps[:0])
		if err != nil {
			return u.rep, err
		}
		if pace {
			u.pace(start, fi, seq, len(wps))
		}
		for i := range wps {
			pkt := &wps[i]
			out := u.seal(pkt, fi, seq)
			if _, err := rxConn.Write(out); err != nil {
				pool.Put(pkt)
				return u.rep, fmt.Errorf("transport: send to receiver: %w", err)
			}
			if evConn != nil {
				// Broadcast overhear: the same datagram reaches the
				// eavesdropper's capture socket.
				if _, err := evConn.Write(out); err != nil {
					pool.Put(pkt)
					return u.rep, fmt.Errorf("transport: send to eavesdropper: %w", err)
				}
			}
			pool.Put(pkt)
			seq++
		}
	}
	u.rep.Elapsed = time.Since(start)
	return u.rep, nil
}

// LiveReceiver captures RTP packets on a UDP socket, applies a loss
// filter, decrypts marked payloads when it has the key (the legitimate
// receiver) or discards them as erasures when it does not (the
// eavesdropper), and reassembles frames. It is a single-session front
// end over the receive step IngestServer runs per tenant (rxSession),
// adding only the loss filter and NACK-driven retransmit requests.
type LiveReceiver struct {
	conn      *net.UDPConn
	closeOnce sync.Once

	mu      sync.Mutex
	cond    *sync.Cond // signalled on every state change and on shutdown
	dropper netem.Dropper
	sess    rxSession
	dead    bool // loop exited (socket closed)
	done    chan struct{}

	// Selective-retransmit state (EnableNACK).
	maxSeq    uint64
	nackFloor uint64 // sequences below this are never NACKed again
	nackTry   map[uint64]int
	nackAt    map[uint64]time.Time // first-NACK time per missing sequence
	nackFrom  netip.AddrPort       // sender address learned from arrivals
}

// SetHeaderOnlyBytes tells the receiver the sender uses a header-only
// policy encrypting just the first n bytes of each marked payload
// (0 = whole payload). Must match the sender's Policy.HeaderOnlyBytes.
func (r *LiveReceiver) SetHeaderOnlyBytes(n int) {
	r.mu.Lock()
	r.sess.hdrOnly = n
	r.mu.Unlock()
}

// NewLiveReceiver opens a listening socket. Pass a nil key to create an
// eavesdropper (marked packets become erasures). addr may use port 0.
func NewLiveReceiver(cfg codec.Config, alg vcrypt.Algorithm, key []byte, addr string, loss float64, seed uint64) (*LiveReceiver, error) {
	r, err := newLiveReceiver(cfg, alg, key, loss, seed)
	if err != nil {
		return nil, err
	}
	if r.conn, err = listenUDP(addr); err != nil {
		return nil, err
	}
	go r.loop()
	return r, nil
}

// newLiveReceiver builds the receiver's state without a socket.
func newLiveReceiver(cfg codec.Config, alg vcrypt.Algorithm, key []byte, loss float64, seed uint64) (*LiveReceiver, error) {
	filter, err := netem.NewFilter(loss, seed)
	if err != nil {
		return nil, err
	}
	var cipher *vcrypt.Cipher
	if key != nil {
		if cipher, err = vcrypt.NewCipher(alg, key); err != nil {
			return nil, err
		}
	}
	sess, err := newRxSession(cfg, cipher, 0)
	if err != nil {
		return nil, err
	}
	r := &LiveReceiver{dropper: filter, sess: sess, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// Addr returns the bound address to hand to the sender.
func (r *LiveReceiver) Addr() string { return r.conn.LocalAddr().String() }

// SetDropper replaces the receiver's loss model (the constructor installs
// a Bernoulli filter) with any netem.Dropper — a Gilbert–Elliott bursty
// channel, a targeted SeqBurst, etc. Call before packets arrive.
func (r *LiveReceiver) SetDropper(d netem.Dropper) {
	r.mu.Lock()
	r.dropper = d
	r.mu.Unlock()
}

// EnableNACK turns on gap detection and selective retransmit requests:
// every interval the receiver NACKs the sequences it has not seen below
// the highest received one, addressed to the packet source. The sender
// honours NACKs only for I-frame packets (the frames whose loss wrecks a
// whole GOP), so requests for unbuffered P packets age out after a few
// tries. Arrivals are always deduplicated by extended sequence (see
// Stats), so retransmitted packets are counted and decoded exactly once.
// Call before sending starts.
func (r *LiveReceiver) EnableNACK(interval time.Duration) {
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	r.mu.Lock()
	if r.nackTry == nil {
		r.nackTry = make(map[uint64]int)
		r.nackAt = make(map[uint64]time.Time)
	}
	r.mu.Unlock()
	go r.nackLoop(interval)
}

// maxNackTries bounds how often one missing sequence is requested; P
// packets are never retransmitted, so the receiver must stop asking.
const maxNackTries = 8

// maxNackBatch bounds the sequences carried in one NACK datagram.
const maxNackBatch = 256

// maxNackWindow bounds how far behind the stream head the NACK scan
// reaches. A sender restart or a spurious sequence jump can move maxSeq
// arbitrarily far ahead of the received prefix; sequences that fall more
// than this far behind are abandoned rather than probed, so a single bad
// jump can no longer turn every tick into an O(maxSeq) rescan that NACKs
// tens of thousands of never-sent sequences.
const maxNackWindow = 4096

func (r *LiveReceiver) nackLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		peer := r.nackFrom
		var missing []uint64
		if r.maxSeq > 0 && peer.IsValid() {
			// Snap the floor into the scan window first, dropping the
			// bookkeeping of everything it abandons so the maps stay
			// bounded by the window.
			if r.maxSeq > maxNackWindow && r.nackFloor < r.maxSeq-maxNackWindow {
				r.pruneNACKBelow(r.maxSeq - maxNackWindow)
			}
			// Advance the floor past everything delivered or given up on;
			// the scan then covers at most maxNackWindow sequences instead
			// of rescanning [0, maxSeq) every tick.
			for r.nackFloor < r.maxSeq && (r.sess.window.Seen(r.nackFloor) || r.nackTry[r.nackFloor] >= maxNackTries) {
				delete(r.nackTry, r.nackFloor)
				delete(r.nackAt, r.nackFloor)
				r.nackFloor++
			}
			for seq := r.nackFloor; seq < r.maxSeq && len(missing) < maxNackBatch; seq++ {
				if !r.sess.window.Seen(seq) && r.nackTry[seq] < maxNackTries {
					if r.nackTry[seq] == 0 {
						// First request: anchor the recovery-delay clock.
						r.nackAt[seq] = time.Now()
					}
					r.nackTry[seq]++
					missing = append(missing, seq)
				}
			}
		}
		r.mu.Unlock()
		if len(missing) > 0 {
			mNACKsRequested.Add(int64(len(missing)))
			r.conn.WriteToUDPAddrPort(marshalNACK(missing), peer) //nolint:errcheck // best effort, like the medium
		}
	}
}

// pruneNACKBelow abandons retransmit bookkeeping for every sequence below
// lo, walking whichever is smaller — the gap or the maps — so a huge
// spurious jump is cheap to absorb. Caller holds r.mu.
func (r *LiveReceiver) pruneNACKBelow(lo uint64) {
	if lo-r.nackFloor <= uint64(len(r.nackTry)+len(r.nackAt)) {
		for s := r.nackFloor; s < lo; s++ {
			delete(r.nackTry, s)
			delete(r.nackAt, s)
		}
	} else {
		for s := range r.nackTry {
			if s < lo {
				delete(r.nackTry, s)
			}
		}
		for s := range r.nackAt {
			if s < lo {
				delete(r.nackAt, s)
			}
		}
	}
	r.nackFloor = lo
}

func (r *LiveReceiver) loop() {
	defer func() {
		r.mu.Lock()
		r.dead = true
		r.cond.Broadcast()
		r.mu.Unlock()
		close(r.done)
	}()
	buf := make([]byte, 65536)
	for {
		n, from, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		r.handle(buf[:n], from)
	}
}

// handle runs one datagram through the receiver. The payload is opened
// in place, so data is reusable as soon as handle returns.
func (r *LiveReceiver) handle(data []byte, from netip.AddrPort) {
	pkt, err := rtp.Parse(data)
	if err != nil {
		return
	}
	// Sequence extension happens before the loss decision so
	// sequence-addressed droppers (burst over one I-frame) see every
	// arrival, like the channel would. The dropper is caller-supplied,
	// so it runs without the lock.
	r.mu.Lock()
	seq64 := r.sess.ext.Extend(pkt.Sequence)
	dropper := r.dropper
	r.mu.Unlock()
	if dropper != nil && dropper.DropSeq(seq64) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nackFrom = from
	dup, usable := r.sess.accept(seq64, pkt)
	r.cond.Broadcast()
	if dup {
		mRxDuplicates.Inc()
		return
	}
	mRxCaptured.Inc()
	if usable {
		mRxUsable.Inc()
	}
	if seq64 >= r.maxSeq {
		r.maxSeq = seq64 + 1
	}
	if r.nackAt != nil {
		if t0, ok := r.nackAt[seq64]; ok {
			mNACKRecoverySeconds.Observe(time.Since(t0).Seconds())
			delete(r.nackAt, seq64)
		}
		// The sequence arrived: its retry count must not linger, or
		// the map grows one entry per recovered loss forever.
		delete(r.nackTry, seq64)
	}
}

// WaitForPackets blocks until the receiver has captured at least n
// packets, the timeout elapses, or the receiver is closed. Waiters are
// woken by arrival signalling (no polling).
func (r *LiveReceiver) WaitForPackets(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		// Broadcast under the lock so a waiter between its deadline
		// check and cond.Wait cannot miss the wakeup.
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.sess.stats.Received < n {
		if r.dead {
			return errors.New("transport: receiver closed while waiting for packets")
		}
		if !time.Now().Before(deadline) {
			return errors.New("transport: timed out waiting for packets")
		}
		r.cond.Wait()
	}
	return nil
}

// Frames returns the reassembled (possibly partial) encoded frames.
func (r *LiveReceiver) Frames(total int) []*codec.EncodedFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess.asm.Frames(total)
}

// Stats returns (captured, usable) packet counts. Both count first
// deliveries only: an arrival whose sequence was already delivered
// (link-layer duplication, a retransmit racing the original) is
// tracked by Duplicates instead of inflating either count.
func (r *LiveReceiver) Stats() (captured, usable int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess.stats.Received, r.sess.stats.Usable
}

// Duplicates returns how many arrivals repeated an already-delivered
// sequence.
func (r *LiveReceiver) Duplicates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess.stats.Duplicates
}

// NACK datagrams travel receiver→sender on the same socket pair:
//
//	"TVNK" (4) | count (2, big endian) | count × seq (8, big endian)
//
// The magic cannot begin a valid RTP packet (version bits would be 1),
// so senders and receivers cheaply tell the two apart.
var nackMagic = [4]byte{'T', 'V', 'N', 'K'}

func marshalNACK(seqs []uint64) []byte {
	if len(seqs) > maxNackBatch {
		seqs = seqs[:maxNackBatch]
	}
	out := make([]byte, 6+8*len(seqs))
	copy(out[:4], nackMagic[:])
	binary.BigEndian.PutUint16(out[4:6], uint16(len(seqs)))
	for i, s := range seqs {
		binary.BigEndian.PutUint64(out[6+8*i:], s)
	}
	return out
}

func parseNACK(data []byte) ([]uint64, bool) {
	if len(data) < 6 || [4]byte(data[:4]) != nackMagic {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(data[4:6]))
	if len(data) < 6+8*n {
		return nil, false
	}
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = binary.BigEndian.Uint64(data[6+8*i:])
	}
	return seqs, true
}

// ReliableUDPOptions tunes LiveUDPSendReliable.
type ReliableUDPOptions struct {
	// Drain is how long the sender keeps servicing NACKs after the last
	// packet (default 500ms).
	Drain time.Duration
	// Conditioner, when non-nil, impairs the sender-side link: packets
	// may be dropped before the socket (lost on the air), delayed
	// (jitter/reordering), or duplicated. Dropped I-frame packets still
	// enter the retransmit buffer, so NACKs recover them.
	Conditioner *netem.Conditioner
}

// LiveUDPSendReliable streams like LiveUDPSend but adds a NACK-driven
// selective-retransmit loop for I-frame packets: every transmitted
// I-frame packet is buffered, a reader goroutine services the receiver's
// NACKs during the transfer and for a drain period after it, and each
// retransmission reuses the original RTP bytes so the receiver's
// per-sequence decrypt and dedup stay correct. P packets are never
// retransmitted — losing one costs a few macroblocks, while losing an
// I-frame burst wrecks the whole GOP (the asymmetry the paper's policies
// are built on). The receiver must have EnableNACK active.
func LiveUDPSendReliable(s Session, rxAddr, evAddr string, pace bool, opts ReliableUDPOptions) (LiveSendReport, error) {
	u, err := newUDPSender(s, "udp-reliable")
	if err != nil {
		return LiveSendReport{}, err
	}
	rxConn, err := net.Dial("udp", rxAddr)
	if err != nil {
		return u.rep, fmt.Errorf("transport: dial receiver: %w", err)
	}
	defer rxConn.Close()
	var evConn net.Conn
	if evAddr != "" {
		evConn, err = net.Dial("udp", evAddr)
		if err != nil {
			return u.rep, fmt.Errorf("transport: dial eavesdropper: %w", err)
		}
		defer evConn.Close()
	}
	drain := opts.Drain
	if drain <= 0 {
		drain = 500 * time.Millisecond
	}

	// Retransmit buffer: extended seq → original marshaled RTP bytes.
	var (
		bufMu       sync.Mutex
		iBuf        = make(map[uint64][]byte)
		retransmits int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// stopNACK ends the NACK reader; every return path runs it.
	stopNACK := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopNACK()
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65536)
		for {
			rxConn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // UDP deadline set cannot fail
			n, err := rxConn.Read(buf)
			if err != nil {
				select {
				case <-stop:
					return
				default:
					continue // deadline tick; keep listening
				}
			}
			seqs, ok := parseNACK(buf[:n])
			if !ok {
				continue
			}
			// Snapshot the buffered packets under the lock, write after
			// releasing it: the send loop stores fresh I-frame packets
			// under the same mutex, and a UDP write stalled by the OS
			// would otherwise stall the encode path with it.
			var resend [][]byte
			bufMu.Lock()
			for _, seq := range seqs {
				if out, have := iBuf[seq]; have {
					resend = append(resend, out)
					retransmits++
					mNACKRetransmits.Inc()
				}
			}
			bufMu.Unlock()
			for _, out := range resend {
				rxConn.Write(out) //nolint:errcheck // best effort, like the medium
			}
		}
	}()

	pool := codec.NewBufPool()
	var wps []codec.WirePacket
	start := time.Now()
	var seq uint64
	for fi, ef := range s.Encoded {
		wps, err = codec.PacketizeInto(ef, s.MTU, rtp.HeaderSize, pool, wps[:0])
		if err != nil {
			return u.rep, err
		}
		if pace {
			u.pace(start, fi, seq, len(wps))
		}
		for i := range wps {
			pkt := &wps[i]
			out := u.seal(pkt, fi, seq)
			if pkt.IsIFrame() {
				bufMu.Lock()
				iBuf[seq] = out
				bufMu.Unlock()
				//lint:retain(I-frame retransmit queue holds the marshaled bytes until the drain ends)
				pkt.Retain()
			}
			send := true
			if opts.Conditioner != nil {
				imp := opts.Conditioner.Next(seq)
				if imp.Drop {
					send = false
					u.rep.Dropped++
				} else {
					if imp.Delay > 0 {
						time.Sleep(imp.Delay)
					}
					for i := 0; i < imp.Duplicates; i++ {
						rxConn.Write(out) //nolint:errcheck // duplicates are opportunistic
						u.rep.Duplicated++
					}
				}
			}
			if send {
				if _, err := rxConn.Write(out); err != nil {
					pool.Put(pkt)
					return u.rep, fmt.Errorf("transport: send to receiver: %w", err)
				}
			}
			if evConn != nil {
				if _, err := evConn.Write(out); err != nil {
					pool.Put(pkt)
					return u.rep, fmt.Errorf("transport: send to eavesdropper: %w", err)
				}
			}
			// Retained I-frame buffers live on in the retransmit map and
			// never rejoin the pool (Put after Retain is a no-op); P/B
			// buffers recycle at once.
			pool.Put(pkt)
			seq++
		}
	}
	// Keep answering NACKs while the receiver notices its gaps.
	time.Sleep(drain)
	stopNACK()
	u.rep.Retransmits = retransmits // the reader has exited
	u.rep.Elapsed = time.Since(start)
	return u.rep, nil
}

// Close shuts the socket down and waits for the receive loop to exit.
func (r *LiveReceiver) Close() error {
	var err error
	r.closeOnce.Do(func() { err = r.conn.Close() })
	<-r.done
	return err
}
