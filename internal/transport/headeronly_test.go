package transport

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/evalvid"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// Header-only encryption (Policy.HeaderOnlyBytes) must blind the
// eavesdropper exactly like full-packet encryption while the receiver
// still decodes perfectly — at a fraction of the cipher time.
func TestHeaderOnlyEncryptionEquivalentConfidentiality(t *testing.T) {
	full := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256}
	hdr := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256, HeaderOnlyBytes: 64}

	sFull, clip := testSession(t, video.MotionMedium, full)
	sFull.Medium.ReceiverError = 0
	rFull, err := RunUDP(sFull, 7)
	if err != nil {
		t.Fatal(err)
	}
	sHdr, _ := testSession(t, video.MotionMedium, hdr)
	sHdr.Medium.ReceiverError = 0
	rHdr, err := RunUDP(sHdr, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Receiver: both decode cleanly.
	for name, res := range map[string]*Result{"full": rFull, "header": rHdr} {
		rx, err := codec.DecodeSequence(res.ReceiverFrames, sFull.Config)
		if err != nil {
			t.Fatal(err)
		}
		q, err := evalvid.Evaluate(clip, rx)
		if err != nil {
			t.Fatal(err)
		}
		if q.PSNR < 30 {
			t.Fatalf("%s: receiver PSNR %.1f", name, q.PSNR)
		}
	}
	// Eavesdropper: nothing usable either way.
	for name, res := range map[string]*Result{"full": rFull, "header": rHdr} {
		for i, ef := range res.EavesFrames {
			if ef != nil {
				t.Fatalf("%s: eavesdropper reassembled frame %d", name, i)
			}
		}
	}
	// Cost: the header-only run spends strictly less time in the cipher.
	var fullCrypto, hdrCrypto float64
	for _, rec := range rFull.Records {
		fullCrypto += rec.EncryptTime
	}
	for _, rec := range rHdr.Records {
		hdrCrypto += rec.EncryptTime
	}
	if hdrCrypto >= fullCrypto {
		t.Fatalf("header-only crypto time %v should undercut full %v", hdrCrypto, fullCrypto)
	}
}

func TestHeaderOnlyPolicyValidation(t *testing.T) {
	bad := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128, HeaderOnlyBytes: 8}
	if err := bad.Validate(); err == nil {
		t.Fatal("prefix below the minimum should be rejected")
	}
	good := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128, HeaderOnlyBytes: vcrypt.MinHeaderOnlyBytes}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.EncryptSpan(1000) != vcrypt.MinHeaderOnlyBytes {
		t.Fatal("span should clamp to the prefix")
	}
	if good.EncryptSpan(10) != 10 {
		t.Fatal("span should not exceed the payload")
	}
	if (vcrypt.Policy{}).EncryptSpan(1000) != 1000 {
		t.Fatal("zero prefix must mean whole payload")
	}
}

func TestPadToMTUHidesSizes(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	s.PadToMTU = true
	res, err := RunUDP(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Size != s.MTU {
			t.Fatalf("packet %d has size %d, want MTU %d", rec.Seq, rec.Size, s.MTU)
		}
	}
	// Receiver still decodes despite padding.
	rx, err := codec.DecodeSequence(res.ReceiverFrames, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	if rx[0] == nil {
		t.Fatal("padded stream must still decode")
	}
}

func TestSojournPercentileAndGoodput(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	res, err := RunUDP(s, 9)
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.SojournPercentile(0.5)
	p99 := res.SojournPercentile(0.99)
	if !(p50 > 0 && p99 >= p50) {
		t.Fatalf("percentiles wrong: p50=%v p99=%v", p50, p99)
	}
	if res.Goodput() <= 0 {
		t.Fatal("goodput should be positive")
	}
	empty := &Result{}
	if empty.SojournPercentile(0.5) != 0 || empty.Goodput() != 0 {
		t.Fatal("empty result conventions violated")
	}
}

// Header-only encryption must reassemble byte-identically through every
// receiver — the live UDP receiver, the ingest daemon and the HTTP upload
// server — whether the prefix is the minimum, a typical 64 B, or longer
// than every payload (whole-payload encryption).
func TestHeaderOnlyReceiversReassembleIdentically(t *testing.T) {
	for _, hdr := range []int{vcrypt.MinHeaderOnlyBytes, 64, 4096} {
		t.Run(strconv.Itoa(hdr), func(t *testing.T) { headerOnlyReceivers(t, hdr) })
	}
}

func headerOnlyReceivers(t *testing.T, hdr int) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128, HeaderOnlyBytes: hdr}
	s, _ := testSession(t, video.MotionLow, pol)
	total := len(s.Encoded)

	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.SetHeaderOnlyBytes(hdr)
	srv, err := NewIngestServer(ingestTestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The ingest daemon sits at the overhearing address: one send
	// reaches both UDP receivers.
	rep, err := LiveUDPSend(s, rx.Addr(), srv.Addr(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.WaitForPackets(rep.Packets, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		st, ok := srv.SessionStats(0x7561)
		return ok && st.Received == rep.Packets
	}, "every datagram to reach the ingest daemon")
	sameFrames(t, "live UDP", rx.Frames(total), s.Encoded)
	sameFrames(t, "UDP ingest", srv.SessionFrames(0x7561, total), s.Encoded)

	hsrv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hsrv.HeaderOnlyBytes = hdr
	hs := httptest.NewServer(hsrv)
	if _, err := LiveHTTPUpload(s, hs.URL, nil); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	sameFrames(t, "HTTP", hsrv.Frames(total), s.Encoded)
}
