package analytic

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// poissonArrivals builds a degenerate MMPP that is exactly a Poisson
// process with the given rate (both states identical).
func poissonArrivals(rate float64) MMPP2 {
	return MMPP2{P1: 1, P2: 1, Lambda1: rate, Lambda2: rate}
}

// expService builds service parameters that collapse to a pure
// exponential-like service via a hyper-tight single class. With PI=0 and
// no encryption, service = transmission time of the P class.
func simpleService(mean, sigma float64) ServiceParams {
	return ServiceParams{
		PI:       0,
		TxMeanI:  mean, // unused (PI=0) but must validate
		TxMeanP:  mean,
		TxSigmaP: sigma,
		PS:       1,
	}
}

func TestSolveQueueMM1Limit(t *testing.T) {
	// Exponential service: sigma = mean => cv2 = 1 => PHFit gives Exp.
	mean := 0.01
	sp := simpleService(mean, mean)
	lambda := 60.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	wantW := rho * mean / (1 - rho) // M/M/1: E[W] = rho/(mu-lambda)
	if !relNear(res.MeanWait, wantW, 1e-6) {
		t.Fatalf("E[W] = %v want %v", res.MeanWait, wantW)
	}
	if !relNear(res.Rho, rho, 1e-12) {
		t.Fatalf("rho = %v want %v", res.Rho, rho)
	}
	wantL := rho / (1 - rho)
	if !relNear(res.MeanInSystem, wantL, 1e-6) {
		t.Fatalf("E[L] = %v want %v", res.MeanInSystem, wantL)
	}
}

func TestSolveQueueMG1Limit(t *testing.T) {
	// Low-variance service, Poisson arrivals: must match
	// Pollaczek-Khinchine computed from the same fitted moments.
	mean, sigma := 0.008, 0.002
	sp := simpleService(mean, sigma)
	lambda := 80.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := sp.Moments()
	wantW, err := MGOneWait(lambda, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !relNear(res.MeanWait, wantW, 1e-6) {
		t.Fatalf("E[W] = %v want PK %v", res.MeanWait, wantW)
	}
}

func TestSolveQueueMD1Limit(t *testing.T) {
	// Near-deterministic service: the Erlang(maxOrder) fit has variance
	// mean^2/k, so compare against P-K with the *fitted* moments and
	// verify we are within a few percent of true M/D/1 too.
	mean := 0.005
	sp := simpleService(mean, 0)
	sp.MaxErlangOrder = 64
	lambda := 120.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	md1 := rho * mean / (2 * (1 - rho)) // true M/D/1 E[W]
	// Erlang(64) slightly inflates the second moment: E[S^2] = m^2(1+1/64).
	fitted := lambda * mean * mean * (1 + 1.0/64) / (2 * (1 - rho))
	if !relNear(res.MeanWait, fitted, 1e-6) {
		t.Fatalf("E[W] = %v want fitted %v", res.MeanWait, fitted)
	}
	if !relNear(res.MeanWait, md1, 0.02) {
		t.Fatalf("E[W] = %v not within 2%% of M/D/1 %v", res.MeanWait, md1)
	}
}

func TestSolveQueueBurstinessRaisesDelay(t *testing.T) {
	// An MMPP with the same mean rate but bursty arrivals must see a
	// larger mean wait than the Poisson process of equal rate.
	mean := 0.004
	sp := simpleService(mean, 0.001)
	bursty := MMPP2{P1: 20, P2: 20, Lambda1: 180, Lambda2: 20} // mean 100
	smooth := poissonArrivals(bursty.MeanRate())
	rb, err := SolveQueue(bursty, sp)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SolveQueue(smooth, sp)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanWait <= rs.MeanWait {
		t.Fatalf("bursty E[W]=%v should exceed Poisson E[W]=%v", rb.MeanWait, rs.MeanWait)
	}
}

func TestSolveQueueUnstable(t *testing.T) {
	sp := simpleService(0.02, 0.001)
	_, err := SolveQueue(poissonArrivals(60), sp) // rho = 1.2
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("want ErrUnstable, got %v", err)
	}
}

func TestSolveQueueEncryptionIncreasesDelay(t *testing.T) {
	// Paper-shaped workload: short I-frame bursts (state 1) inside long
	// P-frame stretches, so only ~20% of packets belong to I-frames and the
	// numerous P packets dominate total encryption work (the reason
	// Figs. 7-8 show delay(P) ~ delay(all) >> delay(I)).
	arr := MMPP2{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100}
	if pI := arr.IFramePacketFraction(); pI > 0.3 {
		t.Fatalf("test workload should be P-dominated, pI = %v", pI)
	}
	base := ServiceParams{
		PI:       arr.IFramePacketFraction(),
		EncMeanI: 0.9e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.5e-3, EncSigmaP: 0.05e-3,
		TxMeanI: 1.8e-3, TxSigmaI: 0.1e-3,
		TxMeanP: 0.6e-3, TxSigmaP: 0.05e-3,
		PS: 0.95, LambdaB: 500,
		MaxErlangOrder: 12,
	}
	delays := map[string]float64{}
	for name, enc := range map[string][2]float64{
		"none": {0, 0}, "I": {1, 0}, "P": {0, 1}, "all": {1, 1},
	} {
		sp := base
		sp.EncI, sp.EncP = enc[0], enc[1]
		res, err := SolveQueue(arr, sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delays[name] = res.MeanSojourn
	}
	if !(delays["none"] < delays["I"] && delays["I"] < delays["all"]) {
		t.Fatalf("expected none < I < all, got %v", delays)
	}
	if !(delays["P"] <= delays["all"] && delays["P"] > delays["I"]) {
		// With mostly P packets (pI small), P-encryption dominates cost,
		// as the paper observes in Fig. 7.
		t.Fatalf("expected I < P <= all, got %v", delays)
	}
}

func TestSolveQueueMatchesPaperOrdering3DESvsAES(t *testing.T) {
	arr := MMPP2{P1: 50, P2: 5, Lambda1: 1200, Lambda2: 40}
	mk := func(encScale float64) float64 {
		sp := ServiceParams{
			PI:   arr.IFramePacketFraction(),
			EncI: 1, EncP: 1,
			MaxErlangOrder: 12,
			EncMeanI:       0.9e-3 * encScale, EncSigmaI: 0.1e-3,
			EncMeanP: 0.3e-3 * encScale, EncSigmaP: 0.05e-3,
			TxMeanI: 1.8e-3, TxSigmaI: 0.1e-3,
			TxMeanP: 0.6e-3, TxSigmaP: 0.05e-3,
			PS: 0.95, LambdaB: 500,
		}
		res, err := SolveQueue(arr, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanSojourn
	}
	aes := mk(1)
	tdes := mk(4) // 3DES is several times slower per byte
	if tdes <= aes {
		t.Fatalf("3DES-like service should be slower: %v vs %v", tdes, aes)
	}
}

func TestServiceMomentsMatchPH(t *testing.T) {
	sp := ServiceParams{
		PI:   0.3,
		EncI: 1, EncP: 0.2,
		EncMeanI: 1e-3, EncSigmaI: 0.2e-3,
		EncMeanP: 0.4e-3, EncSigmaP: 0.1e-3,
		TxMeanI: 2e-3, TxSigmaI: 0.4e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.2e-3,
		PS: 0.9, LambdaB: 800,
	}
	m1, m2 := sp.Moments()
	ph := sp.PH()
	if err := ph.Validate(); err != nil {
		t.Fatal(err)
	}
	if !relNear(ph.Mean(), m1, 1e-9) {
		t.Fatalf("PH mean %v vs analytic %v", ph.Mean(), m1)
	}
	// Second moment matches up to the Erlang-order truncation of the
	// within-class variance fits.
	if !relNear(ph.Moment(2), m2, 0.02) {
		t.Fatalf("PH m2 %v vs analytic %v", ph.Moment(2), m2)
	}
}

func TestServiceLSTConsistency(t *testing.T) {
	sp := ServiceParams{
		PI:   0.25,
		EncI: 1, EncP: 0,
		EncMeanI: 1e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.4e-3,
		TxMeanI:  2e-3, TxSigmaI: 0.2e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.1e-3,
		PS: 0.92, LambdaB: 700,
	}
	// LST(0) = 1 and -LST'(0) = mean.
	if !near(sp.LST(0), 1, 1e-12) {
		t.Fatalf("LST(0) = %v", sp.LST(0))
	}
	h := 1e-4
	m1, _ := sp.Moments()
	numMean := (1 - sp.LST(h)) / h
	if !relNear(numMean, m1, 1e-3) {
		t.Fatalf("numeric mean %v vs %v", numMean, m1)
	}
	// The PH LST tracks the analytic LST closely at moderate s.
	ph := sp.PH()
	for _, s := range []float64{5, 20, 60} {
		if !relNear(ph.LST(s), sp.LST(s), 0.01) {
			t.Fatalf("LST mismatch at s=%v: PH %v analytic %v", s, ph.LST(s), sp.LST(s))
		}
	}
}

func TestServiceEncryptedFraction(t *testing.T) {
	sp := ServiceParams{PI: 0.3, EncI: 1, EncP: 0.5}
	if !near(sp.EncryptedFraction(), 0.3+0.7*0.5, 1e-12) {
		t.Fatalf("q = %v", sp.EncryptedFraction())
	}
}

func TestServiceValidate(t *testing.T) {
	good := simpleService(0.01, 0.001)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PS = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("PS=0 should fail")
	}
	bad = good
	bad.PI = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("PI>1 should fail")
	}
	bad = good
	bad.TxMeanP = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero transmission time should fail")
	}
	bad = good
	bad.PS = 0.5
	bad.LambdaB = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("PS<1 with no backoff rate should fail")
	}
}

func TestMGOneWait(t *testing.T) {
	w, err := MGOneWait(50, 0.01, 0.0002)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * 0.0002 / (2 * (1 - 0.5))
	if !near(w, want, 1e-12) {
		t.Fatalf("PK = %v want %v", w, want)
	}
	if _, err := MGOneWait(200, 0.01, 0.0002); !errors.Is(err, ErrUnstable) {
		t.Fatal("expected ErrUnstable")
	}
}

func TestSolveQueueLoadMonotonicity(t *testing.T) {
	sp := simpleService(0.002, 0.0005)
	prev := -1.0
	for _, lambda := range []float64{50, 150, 300, 420} {
		res, err := SolveQueue(poissonArrivals(lambda), sp)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if res.MeanWait <= prev {
			t.Fatalf("E[W] must grow with load: %v then %v", prev, res.MeanWait)
		}
		prev = res.MeanWait
	}
}

func TestSolveQueueBackoffIncreasesDelay(t *testing.T) {
	arr := poissonArrivals(100)
	noLoss := simpleService(0.003, 0.0005)
	withLoss := noLoss
	withLoss.PS = 0.8
	withLoss.LambdaB = 400
	r1, err := SolveQueue(arr, noLoss)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveQueue(arr, withLoss)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeanSojourn <= r1.MeanSojourn {
		t.Fatalf("backoff should add delay: %v vs %v", r2.MeanSojourn, r1.MeanSojourn)
	}
	if math.Abs((r2.MeanService-r1.MeanService)-(1-0.8)/(0.8*400)) > 1e-9 {
		t.Fatalf("backoff mean contribution wrong: %v", r2.MeanService-r1.MeanService)
	}
}

func TestSolveQueueVarianceMM1(t *testing.T) {
	// M/M/1: Var(L) = rho/(1-rho)^2, P{busy} = rho.
	mean := 0.01
	sp := simpleService(mean, mean) // cv2=1 -> exponential fit
	lambda := 60.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	wantVar := rho / ((1 - rho) * (1 - rho))
	if !relNear(res.VarInSystem, wantVar, 1e-5) {
		t.Fatalf("Var(L) = %v want %v", res.VarInSystem, wantVar)
	}
	if !relNear(res.PBusy, rho, 1e-6) {
		t.Fatalf("P(busy) = %v want %v", res.PBusy, rho)
	}
}

func TestSolveQueueBusyProbabilityIsRho(t *testing.T) {
	// For any single-server queue with unit service per customer,
	// P{busy} = rho regardless of arrival correlations.
	arr := MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := ServiceParams{
		PI: arr.IFramePacketFraction(), TxMeanI: 1.6e-3, TxMeanP: 0.7e-3,
		TxSigmaI: 0.2e-3, TxSigmaP: 0.1e-3, PS: 1, MaxErlangOrder: 16,
	}
	res, err := SolveQueue(arr, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !relNear(res.PBusy, res.Rho, 1e-6) {
		t.Fatalf("P(busy) = %v want rho %v", res.PBusy, res.Rho)
	}
	if res.VarInSystem <= 0 {
		t.Fatal("variance must be positive")
	}
}

func TestSolveQueueTailDecayMM1(t *testing.T) {
	// M/M/1: queue length is geometric with ratio rho, so the dominant
	// eigenvalue of R equals rho.
	mean := 0.01
	sp := simpleService(mean, mean)
	lambda := 70.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	if !relNear(res.TailDecay, rho, 1e-4) {
		t.Fatalf("tail decay %v want rho %v", res.TailDecay, rho)
	}
}

func TestSolveQueueTailDecayInUnitInterval(t *testing.T) {
	arr := MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := ServiceParams{
		PI: arr.IFramePacketFraction(), TxMeanI: 1.6e-3, TxMeanP: 0.7e-3,
		PS: 1, MaxErlangOrder: 12,
	}
	res, err := SolveQueue(arr, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TailDecay <= 0 || res.TailDecay >= 1 {
		t.Fatalf("tail decay %v out of (0,1)", res.TailDecay)
	}
	// Burstier arrivals must have a heavier tail than Poisson of equal
	// rate and service.
	pois, err := SolveQueue(poissonArrivals(arr.MeanRate()), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TailDecay <= pois.TailDecay {
		t.Fatalf("bursty tail %v should exceed Poisson %v", res.TailDecay, pois.TailDecay)
	}
}

// goldenArrivals are the arrival shapes of the golden grid: Poisson (both
// states alike), symmetric bursts, and short I-frame bursts inside long
// P-frame stretches.
var goldenArrivals = []MMPP2{
	{P1: 1, P2: 1, Lambda1: 100, Lambda2: 100},
	{P1: 20, P2: 20, Lambda1: 180, Lambda2: 20},
	{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100},
}

// gridCase scales arr's arrival rates to load rho on a service with every
// component of Eq. (3): an I/P encryption mixture with a plaintext branch,
// backoff, and I/P transmission, each fitted with at most order stages.
func gridCase(arr MMPP2, rho float64, order int) (MMPP2, ServiceParams) {
	sp := ServiceParams{
		PI:   arr.IFramePacketFraction(),
		EncI: 1, EncP: 0.5,
		EncMeanI: 0.9e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.5e-3, EncSigmaP: 0.05e-3,
		TxMeanI: 1.8e-3, TxSigmaI: 0.1e-3,
		TxMeanP: 0.6e-3, TxSigmaP: 0.05e-3,
		PS: 0.95, LambdaB: 500,
		MaxErlangOrder: order,
	}
	k := rho / (arr.MeanRate() * sp.Mean())
	arr.Lambda1 *= k
	arr.Lambda2 *= k
	return arr, sp
}

// goldenGrid holds the results of the dense logarithmic-reduction QBD
// solver that the structured solve replaced, for
// gridCase(goldenArrivals[arr], rho, order).
var goldenGrid = []struct {
	arr   int
	rho   float64
	order int
	want  QueueResult
}{
	{0, 0.1, 4, QueueResult{Rho: 0.1, MeanWait: 0.00014865745685651023, MeanSojourn: 0.002028920614751247, MeanService: 0.0018802631578947369, MeanQueueLen: 0.00790620484331335, MeanInSystem: 0.10790620484331333, VarInSystem: 0.11325220401590472, PBusy: 0.09999999999999998, TailDecay: 0.10235545844505144, Phases: 34}},
	{0, 0.3, 4, QueueResult{Rho: 0.3, MeanWait: 0.000573393047875111, MeanSojourn: 0.002453656205769848, MeanService: 0.0018802631578947369, MeanQueueLen: 0.09148608461548308, MeanInSystem: 0.39148608461548307, VarInSystem: 0.47446692650450284, PBusy: 0.3, TailDecay: 0.2687934354230651, Phases: 34}},
	{0, 0.5, 4, QueueResult{Rho: 0.5000000000000001, MeanWait: 0.0013379171117060922, MeanSojourn: 0.003218180269600829, MeanService: 0.0018802631578947369, MeanQueueLen: 0.35577921794843603, MeanInSystem: 0.8557792179482158, VarInSystem: 1.3249098232309389, PBusy: 0.49999999999977973, TailDecay: 0.4271846060468308, Phases: 34}},
	{0, 0.7, 4, QueueResult{Rho: 0.7000000000000001, MeanWait: 0.003121806593986417, MeanSojourn: 0.005002069751881154, MeanService: 0.0018802631578947369, MeanQueueLen: 1.1622121119669515, MeanInSystem: 1.8622121119669381, VarInSystem: 4.503116100961086, PBusy: 0.6999999999999865, TailDecay: 0.6231915428912548, Phases: 34}},
	{0, 0.9, 4, QueueResult{Rho: 0.9, MeanWait: 0.012041254005377627, MeanSojourn: 0.013921517163272364, MeanService: 0.0018802631578947369, MeanQueueLen: 5.763623330775576, MeanInSystem: 6.663623330775578, VarInSystem: 47.1299890285661, PBusy: 0.9000000000000021, TailDecay: 0.864294900303506, Phases: 34}},
	{0, 0.95, 4, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.02542042512246566, MeanSojourn: 0.027300688280360395, MeanService: 0.0018802631578947369, MeanQueueLen: 12.843629767963753, MeanInSystem: 13.793629767963758, VarInSystem: 195.37454656510272, PBusy: 0.9500000000000041, TailDecay: 0.9309335760413583, Phases: 34}},
	{0, 0.1, 32, QueueResult{Rho: 0.1, MeanWait: 0.00013400183618160165, MeanSojourn: 0.0020142649940763386, MeanService: 0.0018802631578947369, MeanQueueLen: 0.007126759656964118, MeanInSystem: 0.1071267596569642, VarInSystem: 0.11084247405278408, PBusy: 0.10000000000000007, TailDecay: 0.10219366921168804, Phases: 258}},
	{0, 0.3, 32, QueueResult{Rho: 0.3, MeanWait: 0.0005168642252718898, MeanSojourn: 0.0023971273831666267, MeanService: 0.0018802631578947369, MeanQueueLen: 0.08246679031629872, MeanInSystem: 0.38246679031629904, VarInSystem: 0.44376846588541363, PBusy: 0.3000000000000003, TailDecay: 0.2661333242016574, Phases: 258}},
	{0, 0.5, 32, QueueResult{Rho: 0.5000000000000001, MeanWait: 0.0012060165256336595, MeanSojourn: 0.003086279683528396, MeanService: 0.0018802631578947369, MeanQueueLen: 0.3207041845631845, MeanInSystem: 0.8207041845631131, VarInSystem: 1.1825297128897212, PBusy: 0.4999999999999286, TailDecay: 0.4143927137942567, Phases: 258}},
	{0, 0.7, 32, QueueResult{Rho: 0.7000000000000001, MeanWait: 0.002814038559813646, MeanSojourn: 0.004694301717708383, MeanService: 0.0018802631578947369, MeanQueueLen: 1.0476336695737296, MeanInSystem: 1.7476336695737302, VarInSystem: 3.844772420011087, PBusy: 0.7000000000000005, TailDecay: 0.6007903652948909, Phases: 258}},
	{0, 0.9, 32, QueueResult{Rho: 0.9, MeanWait: 0.010854148730709556, MeanSojourn: 0.012734411888604294, MeanService: 0.0018802631578947369, MeanQueueLen: 5.195407789926758, MeanInSystem: 6.095407789926758, VarInSystem: 38.806709601954836, PBusy: 0.899999999999999, TailDecay: 0.8515295661610328, Phases: 258}},
	{0, 0.95, 32, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.022914313987042623, MeanSojourn: 0.02479457714493736, MeanService: 0.0018802631578947369, MeanQueueLen: 11.57742106273252, MeanInSystem: 12.527421062732499, VarInSystem: 159.73279257713344, PBusy: 0.949999999999978, TailDecay: 0.9238996209732834, Phases: 258}},
	{0, 0.1, 64, QueueResult{Rho: 0.1, MeanWait: 0.0001329550061333954, MeanSojourn: 0.0020132181640281324, MeanService: 0.0018802631578947369, MeanQueueLen: 0.0070710850007963955, MeanInSystem: 0.10707108500079639, VarInSystem: 0.11067179249876286, PBusy: 0.09999999999999999, TailDecay: 0.10218422680407137, Phases: 514}},
	{0, 0.3, 64, QueueResult{Rho: 0.3, MeanWait: 0.0005128264522288028, MeanSojourn: 0.0023930896101235395, MeanService: 0.0018802631578947369, MeanQueueLen: 0.08182255500921415, MeanInSystem: 0.3818225550092141, VarInSystem: 0.4416303887570763, PBusy: 0.29999999999999993, TailDecay: 0.26598320057625263, Phases: 514}},
	{0, 0.5, 64, QueueResult{Rho: 0.5000000000000001, MeanWait: 0.0011965950551998449, MeanSojourn: 0.003076858213094582, MeanService: 0.0018802631578947369, MeanQueueLen: 0.3181988250356481, MeanInSystem: 0.818198825035582, VarInSystem: 1.1727678493502847, PBusy: 0.49999999999993383, TailDecay: 0.41361910420757564, Phases: 514}},
	{0, 0.7, 64, QueueResult{Rho: 0.7000000000000001, MeanWait: 0.0027920551288011996, MeanSojourn: 0.004672318286695936, MeanService: 0.0018802631578947369, MeanQueueLen: 1.0394494951170317, MeanInSystem: 1.7394494951170272, VarInSystem: 3.8001885718809896, PBusy: 0.6999999999999955, TailDecay: 0.5991873343083969, Phases: 514}},
	{0, 0.9, 64, QueueResult{Rho: 0.9, MeanWait: 0.010769355496806259, MeanSojourn: 0.012649618654700996, MeanService: 0.0018802631578947369, MeanQueueLen: 5.1548209655811625, MeanInSystem: 6.054820965581172, VarInSystem: 38.24605500274428, PBusy: 0.9000000000000091, TailDecay: 0.8505343438885343, Phases: 514}},
	{0, 0.95, 64, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.022735306048841962, MeanSojourn: 0.024615569206736698, MeanService: 0.0018802631578947369, MeanQueueLen: 11.486977583809583, MeanInSystem: 12.436977583809647, VarInSystem: 157.33119005800222, PBusy: 0.9500000000000632, TailDecay: 0.9233441069046951, Phases: 514}},
	{1, 0.1, 4, QueueResult{Rho: 0.1, MeanWait: 0.0003097098403343152, MeanSojourn: 0.002929972998229052, MeanService: 0.0026202631578947366, MeanQueueLen: 0.011819799068699385, MeanInSystem: 0.11181979906869945, VarInSystem: 0.12556119177872485, PBusy: 0.10000000000000006, TailDecay: 0.12630833668185643, Phases: 34}},
	{1, 0.3, 4, QueueResult{Rho: 0.3, MeanWait: 0.0015325038644329473, MeanSojourn: 0.004152767022327684, MeanService: 0.0026202631578947366, MeanQueueLen: 0.17545991819358842, MeanInSystem: 0.47545991819358424, VarInSystem: 0.8051301236933196, PBusy: 0.2999999999999958, TailDecay: 0.3756459650117184, Phases: 34}},
	{1, 0.5, 4, QueueResult{Rho: 0.5, MeanWait: 0.005774760991318339, MeanSojourn: 0.008395024149213077, MeanService: 0.0026202631578947366, MeanQueueLen: 1.1019429430054077, MeanInSystem: 1.601942943005406, VarInSystem: 6.3283491661866105, PBusy: 0.4999999999999983, TailDecay: 0.698321896554544, Phases: 34}},
	{1, 0.7, 4, QueueResult{Rho: 0.7, MeanWait: 0.024920977751338492, MeanSojourn: 0.02754124090923323, MeanService: 0.0026202631578947366, MeanQueueLen: 6.6576077953761565, MeanInSystem: 7.357607795376154, VarInSystem: 99.62250388627072, PBusy: 0.6999999999999976, TailDecay: 0.9090910167331707, Phases: 34}},
	{1, 0.9, 4, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.14065054480841216, MeanSojourn: 0.1432708079663069, MeanService: 0.0026202631578947366, MeanQueueLen: 48.310220271645036, MeanInSystem: 49.210220271645035, VarInSystem: 3012.9847458697013, PBusy: 0.8999999999999969, TailDecay: 0.9820597087733633, Phases: 34}},
	{1, 0.95, 4, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.31645330389945375, MeanSojourn: 0.31907356705734846, MeanService: 0.0026202631578947366, MeanQueueLen: 114.73299458441579, MeanInSystem: 115.68299458441584, VarInSystem: 14954.280001516714, PBusy: 0.950000000000052, TailDecay: 0.9918690987978559, Phases: 34}},
	{1, 0.1, 32, QueueResult{Rho: 0.1, MeanWait: 0.000280988875275451, MeanSojourn: 0.0029012520331701875, MeanService: 0.0026202631578947366, MeanQueueLen: 0.010723689123699046, MeanInSystem: 0.11072368912369863, VarInSystem: 0.121980787310763, PBusy: 0.09999999999999959, TailDecay: 0.1256331977669279, Phases: 258}},
	{1, 0.3, 32, QueueResult{Rho: 0.3, MeanWait: 0.0013991790608063762, MeanSojourn: 0.004019442218701113, MeanService: 0.0026202631578947366, MeanQueueLen: 0.16019525251775324, MeanInSystem: 0.46019525251775106, VarInSystem: 0.736352852566925, PBusy: 0.2999999999999978, TailDecay: 0.35917810434872444, Phases: 258}},
	{1, 0.5, 32, QueueResult{Rho: 0.5, MeanWait: 0.0054096134401387585, MeanSojourn: 0.008029876598033496, MeanService: 0.0026202631578947366, MeanQueueLen: 1.0322652943922508, MeanInSystem: 1.5322652943922652, VarInSystem: 5.689561392269873, PBusy: 0.5000000000000145, TailDecay: 0.6836465525981128, Phases: 258}},
	{1, 0.7, 32, QueueResult{Rho: 0.7, MeanWait: 0.024331774326917695, MeanSojourn: 0.02695203748481243, MeanService: 0.0026202631578947366, MeanQueueLen: 6.500202843185805, MeanInSystem: 7.2002028431837575, VarInSystem: 95.15934449062465, PBusy: 0.699999999997952, TailDecay: 0.9070567677350918, Phases: 258}},
	{1, 0.9, 32, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.13912203919789792, MeanSojourn: 0.14174230235579266, MeanService: 0.0026202631578947366, MeanQueueLen: 47.78521382512914, MeanInSystem: 48.685213825129004, VarInSystem: 2948.68398743711, PBusy: 0.8999999999998619, TailDecay: 0.9818668652070204, Phases: 258}},
	{1, 0.95, 32, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.31339915616724784, MeanSojourn: 0.31601941932514255, MeanService: 0.0026202631578947366, MeanQueueLen: 113.6256858254258, MeanInSystem: 114.57568582542595, VarInSystem: 14669.08449540334, PBusy: 0.9500000000001411, TailDecay: 0.991790763045572, Phases: 258}},
	{1, 0.1, 64, QueueResult{Rho: 0.1, MeanWait: 0.00027892738241027635, MeanSojourn: 0.002899190540305013, MeanService: 0.0026202631578947366, MeanQueueLen: 0.010645014092186905, MeanInSystem: 0.11064501409218716, VarInSystem: 0.12172657277653473, PBusy: 0.10000000000000026, TailDecay: 0.12559542126994847, Phases: 514}},
	{1, 0.3, 64, QueueResult{Rho: 0.3, MeanWait: 0.0013895501762130715, MeanSojourn: 0.004009813334107808, MeanService: 0.0026202631578947366, MeanQueueLen: 0.15909281921089702, MeanInSystem: 0.45909281921089323, VarInSystem: 0.7315338655451876, PBusy: 0.2999999999999962, TailDecay: 0.3581170901947173, Phases: 514}},
	{1, 0.5, 64, QueueResult{Rho: 0.5, MeanWait: 0.00538286756018267, MeanSojourn: 0.008003130718077407, MeanService: 0.0026202631578947366, MeanQueueLen: 1.027161631449942, MeanInSystem: 1.5271616314499359, VarInSystem: 5.6443062020182, PBusy: 0.49999999999999384, TailDecay: 0.6825336048818922, Phases: 514}},
	{1, 0.7, 64, QueueResult{Rho: 0.7, MeanWait: 0.024289138987427142, MeanSojourn: 0.02690940214532188, MeanService: 0.0026202631578947366, MeanQueueLen: 6.488812865979331, MeanInSystem: 7.188812865977326, VarInSystem: 94.84105277733437, PBusy: 0.699999999997995, TailDecay: 0.9069066298043406, Phases: 514}},
	{1, 0.9, 64, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.1390127166937984, MeanSojourn: 0.14163297985169312, MeanService: 0.0026202631578947366, MeanQueueLen: 47.74766406475751, MeanInSystem: 48.647664064757485, VarInSystem: 2944.113522159339, PBusy: 0.8999999999999758, TailDecay: 0.9818529208784054, Phases: 514}},
	{1, 0.95, 64, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.31318090814308697, MeanSojourn: 0.31580117130098173, MeanService: 0.0026202631578947366, MeanQueueLen: 113.54655803922306, MeanInSystem: 114.49655803922253, VarInSystem: 14648.81287519018, PBusy: 0.9499999999994785, TailDecay: 0.9917851083980279, Phases: 514}},
	{2, 0.1, 4, QueueResult{Rho: 0.1, MeanWait: 0.00028326164059183114, MeanSojourn: 0.0016085247984865682, MeanService: 0.001325263157894737, MeanQueueLen: 0.02137399194298964, MeanInSystem: 0.1213739919429896, VarInSystem: 0.17219192376300999, PBusy: 0.09999999999999996, TailDecay: 0.43745154773099215, Phases: 34}},
	{2, 0.3, 4, QueueResult{Rho: 0.29999999999999993, MeanWait: 0.001475973611033712, MeanSojourn: 0.002801236768928449, MeanService: 0.001325263157894737, MeanQueueLen: 0.33411634562717063, MeanInSystem: 0.6341163456271701, VarInSystem: 2.804425322214671, PBusy: 0.2999999999999995, TailDecay: 0.7717857457637008, Phases: 34}},
	{2, 0.5, 4, QueueResult{Rho: 0.4999999999999999, MeanWait: 0.003852978943936692, MeanSojourn: 0.005178242101831428, MeanService: 0.001325263157894737, MeanQueueLen: 1.453665606330364, MeanInSystem: 1.953665606330364, VarInSystem: 19.719844894134205, PBusy: 0.49999999999999994, TailDecay: 0.8784189411722754, Phases: 34}},
	{2, 0.7, 4, QueueResult{Rho: 0.6999999999999998, MeanWait: 0.009476891979561574, MeanSojourn: 0.010802155137456311, MeanService: 0.001325263157894737, MeanQueueLen: 5.005665739800194, MeanInSystem: 5.705665739800198, VarInSystem: 108.5485430808311, PBusy: 0.7000000000000037, TailDecay: 0.9306050340194701, Phases: 34}},
	{2, 0.9, 4, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.03767355141942951, MeanSojourn: 0.03899881457732425, MeanService: 0.001325263157894737, MeanQueueLen: 25.584500765379055, MeanInSystem: 26.484500765379007, VarInSystem: 1202.089181839453, PBusy: 0.8999999999999511, TailDecay: 0.9731258303459769, Phases: 34}},
	{2, 0.95, 4, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.07998113911253679, MeanSojourn: 0.08130640227043152, MeanService: 0.001325263157894737, MeanQueueLen: 57.33358065851027, MeanInSystem: 58.28358065851024, VarInSystem: 4582.461895233494, PBusy: 0.9499999999999679, TailDecay: 0.9855874549970689, Phases: 34}},
	{2, 0.1, 32, QueueResult{Rho: 0.1, MeanWait: 0.00026716425702635546, MeanSojourn: 0.0015924274149210923, MeanService: 0.001325263157894737, MeanQueueLen: 0.020159336312552636, MeanInSystem: 0.1201593363125526, VarInSystem: 0.1667098217276923, PBusy: 0.09999999999999996, TailDecay: 0.43549327678664157, Phases: 258}},
	{2, 0.3, 32, QueueResult{Rho: 0.29999999999999993, MeanWait: 0.0014299593127902043, MeanSojourn: 0.0027552224706849414, MeanService: 0.001325263157894737, MeanQueueLen: 0.3237000827205783, MeanInSystem: 0.6237000827205776, VarInSystem: 2.724144346136463, PBusy: 0.2999999999999993, TailDecay: 0.7700516289246605, Phases: 258}},
	{2, 0.5, 32, QueueResult{Rho: 0.4999999999999999, MeanWait: 0.0037523688480692154, MeanSojourn: 0.005077632005963952, MeanService: 0.001325263157894737, MeanQueueLen: 1.415707071352563, MeanInSystem: 1.9157070713525584, VarInSystem: 19.272197604004, PBusy: 0.4999999999999953, TailDecay: 0.8777729320605827, Phases: 258}},
	{2, 0.7, 32, QueueResult{Rho: 0.6999999999999998, MeanWait: 0.009245250954574086, MeanSojourn: 0.010570514112468824, MeanService: 0.001325263157894737, MeanQueueLen: 4.883313649556605, MeanInSystem: 5.58331364955659, VarInSystem: 105.99469237385463, PBusy: 0.6999999999999851, TailDecay: 0.930129204220923, Phases: 258}},
	{2, 0.9, 32, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.03678314969683442, MeanSojourn: 0.03810841285472916, MeanService: 0.001325263157894737, MeanQueueLen: 24.97981969086054, MeanInSystem: 25.879819690860458, VarInSystem: 1163.5436076913497, PBusy: 0.8999999999999185, TailDecay: 0.9727402787702673, Phases: 258}},
	{2, 0.95, 32, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.07810208244035627, MeanSojourn: 0.079427345598251, MeanService: 0.001325263157894737, MeanQueueLen: 55.986600001923364, MeanInSystem: 56.9366000019235, VarInSystem: 4411.309754624981, PBusy: 0.9500000000001407, TailDecay: 0.985322827996785, Phases: 258}},
	{2, 0.1, 64, QueueResult{Rho: 0.1, MeanWait: 0.0002659926773428833, MeanSojourn: 0.0015912558352376201, MeanService: 0.001325263157894737, MeanQueueLen: 0.020070932762171492, MeanInSystem: 0.12007093276217215, VarInSystem: 0.1663121063723277, PBusy: 0.10000000000000066, TailDecay: 0.43537377511870173, Phases: 514}},
	{2, 0.3, 64, QueueResult{Rho: 0.29999999999999993, MeanWait: 0.0014266772024536612, MeanSojourn: 0.0027519403603483983, MeanService: 0.001325263157894737, MeanQueueLen: 0.32295711096051893, MeanInSystem: 0.6229571109605173, VarInSystem: 2.718467640521848, PBusy: 0.2999999999999984, TailDecay: 0.7699276855589646, Phases: 514}},
	{2, 0.5, 64, QueueResult{Rho: 0.4999999999999999, MeanWait: 0.0037451908680237777, MeanSojourn: 0.005070454025918514, MeanService: 0.001325263157894737, MeanQueueLen: 1.4129989374990422, MeanInSystem: 1.912998937499037, VarInSystem: 19.240752209518295, PBusy: 0.49999999999999484, TailDecay: 0.8777269173066966, Phases: 514}},
	{2, 0.7, 64, QueueResult{Rho: 0.6999999999999998, MeanWait: 0.009228713046152278, MeanSojourn: 0.010553976204047015, MeanService: 0.001325263157894737, MeanQueueLen: 4.874578376244053, MeanInSystem: 5.574578376244078, VarInSystem: 105.81531296260079, PBusy: 0.7000000000000254, TailDecay: 0.9300953182452367, Phases: 514}},
	{2, 0.9, 64, QueueResult{Rho: 0.8999999999999999, MeanWait: 0.03671955684101043, MeanSojourn: 0.03804481999890517, MeanService: 0.001325263157894737, MeanQueueLen: 24.936633120781504, MeanInSystem: 25.83663312078153, VarInSystem: 1160.8301516138627, PBusy: 0.9000000000000264, TailDecay: 0.9727124964585501, Phases: 514}},
	{2, 0.95, 64, QueueResult{Rho: 0.9499999999999998, MeanWait: 0.07796787121218161, MeanSojourn: 0.07929313437007635, MeanService: 0.001325263157894737, MeanQueueLen: 55.89039219141691, MeanInSystem: 56.8403921914164, VarInSystem: 4399.251120161993, PBusy: 0.9499999999994884, TailDecay: 0.9853036266959191, Phases: 514}},
}

// planArrival and planService are the calibration `thriftyvid plan` makes
// for the 60-frame medium-motion CIF clip of seed 1 on the Samsung S-II
// profile; the planner's eight AES256 candidates differ only in EncI and
// EncP.
var planArrival = MMPP2{P1: 6349.206349204975, P2: 30.14253844450881, Lambda1: 19999.999999995667, Lambda2: 30.14253844450881}

func planService(encI, encP float64) ServiceParams {
	return ServiceParams{
		PI:   0.08433734939759036,
		EncI: encI, EncP: encP,
		EncMeanI: 0.00034776719576719577, EncSigmaI: 2.211339755799427e-05,
		EncMeanP: 0.00030507602339181273, EncSigmaP: 3.010320644362882e-05,
		TxMeanI: 0.0002688571428571428, TxSigmaI: 2.9370539174972104e-05,
		TxMeanP: 0.0002119473684210526, TxSigmaP: 4.0190700067290575e-05,
		PS: 0.821941791529361, LambdaB: 11448.919060148304,
	}
}

// goldenPlan holds the dense solver's results for the planner's
// candidates none, I, P, all and I+10/20/30/50%P.
var goldenPlan = []struct {
	encI, encP float64
	want       QueueResult
}{
	{0, 0, QueueResult{Rho: 0.029340843468501528, MeanWait: 0.0004873189575437185, MeanSojourn: 0.0007229874842541957, MeanService: 0.00023566852671047718, MeanQueueLen: 0.060671441588334596, MeanInSystem: 0.09001228505683632, VarInSystem: 0.5263169821812226, PBusy: 0.029340843468501732, TailDecay: 0.726154058193693, Phases: 122}},
	{1, 0, QueueResult{Rho: 0.032992412949533916, MeanWait: 0.0005626749760008262, MeanSojourn: 0.0008276732662097414, MeanService: 0.00026499829020891534, MeanQueueLen: 0.07005330166452445, MeanInSystem: 0.10304571461405865, VarInSystem: 0.6163270905905553, PBusy: 0.03299241294953419, TailDecay: 0.7320897835952795, Phases: 186}},
	{0, 1, QueueResult{Rho: 0.06411964276618244, MeanWait: 0.00122808079515777, MeanSojourn: 0.0017430960420824371, MeanService: 0.0005150152469246671, MeanQueueLen: 0.15289664207755704, MeanInSystem: 0.21701628484373983, VarInSystem: 1.411751879998313, PBusy: 0.0641196427661828, TailDecay: 0.7530826486053812, Phases: 186}},
	{1, 1, QueueResult{Rho: 0.06777121224721483, MeanWait: 0.0013091508659915756, MeanSojourn: 0.001853495876414681, MeanService: 0.0005443450104231053, MeanQueueLen: 0.1629899043876204, MeanInSystem: 0.23076111663483517, VarInSystem: 1.5089278786034273, PBusy: 0.06777121224721477, TailDecay: 0.7545117981073173, Phases: 250}},
	{1, 0.1, QueueResult{Rho: 0.03647029287930201, MeanWait: 0.0006348970656392369, MeanSojourn: 0.0009278300278695713, MeanService: 0.00029293296223033435, MeanQueueLen: 0.07904498611482864, MeanInSystem: 0.11551527899413071, VarInSystem: 0.7025372068342233, PBusy: 0.03647029287930206, TailDecay: 0.7361648511727902, Phases: 250}},
	{1, 0.2, QueueResult{Rho: 0.03994817280907011, MeanWait: 0.0007076425366604972, MeanSojourn: 0.0010285101709122506, MeanService: 0.0003208676342517534, MeanQueueLen: 0.08810183179579381, MeanInSystem: 0.12805000460486407, VarInSystem: 0.7894061383026438, PBusy: 0.03994817280907025, TailDecay: 0.7394422390961247, Phases: 250}},
	{1, 0.3, QueueResult{Rho: 0.04342605273883819, MeanWait: 0.000780917096914996, MeanSojourn: 0.0011297194031881683, MeanService: 0.00034880230627317235, MeanQueueLen: 0.09722454933750344, MeanInSystem: 0.14065060207634172, VarInSystem: 0.8769403927824972, PBusy: 0.04342605273883829, TailDecay: 0.7421862577584541, Phases: 250}},
	{1, 0.5, QueueResult{Rho: 0.050381812598374376, MeanWait: 0.0009290767346628236, MeanSojourn: 0.001333748384978834, MeanService: 0.00040467165031601035, MeanQueueLen: 0.11567049458181441, MeanInSystem: 0.166052307180189, VarInSystem: 1.0540326981636943, PBusy: 0.05038181259837459, TailDecay: 0.7466307715957292, Phases: 250}},
}

// sameResult reports the first field of got that differs from want by
// more than rel (relative); Iterations is the solver's own diagnostic.
func sameResult(got, want QueueResult, rel float64) error {
	fields := []struct {
		name      string
		got, want float64
	}{
		{"Rho", got.Rho, want.Rho},
		{"MeanWait", got.MeanWait, want.MeanWait},
		{"MeanSojourn", got.MeanSojourn, want.MeanSojourn},
		{"MeanService", got.MeanService, want.MeanService},
		{"MeanQueueLen", got.MeanQueueLen, want.MeanQueueLen},
		{"MeanInSystem", got.MeanInSystem, want.MeanInSystem},
		{"VarInSystem", got.VarInSystem, want.VarInSystem},
		{"PBusy", got.PBusy, want.PBusy},
		{"TailDecay", got.TailDecay, want.TailDecay},
	}
	for _, f := range fields {
		if !relNear(f.got, f.want, rel) {
			return fmt.Errorf("%s = %v, want %v (rel err %.2g)", f.name, f.got, f.want, math.Abs(f.got-f.want)/math.Abs(f.want))
		}
	}
	if got.Phases != want.Phases {
		return fmt.Errorf("Phases = %d, want %d", got.Phases, want.Phases)
	}
	return nil
}

func TestSolveQueueGoldenGrid(t *testing.T) {
	for _, g := range goldenGrid {
		arr, sp := gridCase(goldenArrivals[g.arr], g.rho, g.order)
		res, err := SolveQueue(arr, sp)
		if err != nil {
			t.Fatalf("arrival %d rho %v order %d: %v", g.arr, g.rho, g.order, err)
		}
		if err := sameResult(res, g.want, 1e-9); err != nil {
			t.Errorf("arrival %d rho %v order %d: %v", g.arr, g.rho, g.order, err)
		}
	}
}

func TestSolveQueueGoldenPlan(t *testing.T) {
	for _, g := range goldenPlan {
		res, err := SolveQueue(planArrival, planService(g.encI, g.encP))
		if err != nil {
			t.Fatalf("EncI %v EncP %v: %v", g.encI, g.encP, err)
		}
		if err := sameResult(res, g.want, 1e-9); err != nil {
			t.Errorf("EncI %v EncP %v: %v", g.encI, g.encP, err)
		}
	}
}

// denseBlocks builds the level blocks A0 = D1 ⊗ I, A1 = D0 ⊕ S and
// A2 = (I ⊗ s*)(I ⊗ β) as n×n matrices, phase (a, s) at a*ms+s.
func denseBlocks(arr MMPP2, ph PH) (a0, a1, a2 *stats.Matrix) {
	d0, d1 := arr.D0(), arr.D1()
	ms := ph.Dim()
	n := 2 * ms
	exit := ph.ExitVector()
	a0, a1, a2 = stats.NewMatrix(n, n), stats.NewMatrix(n, n), stats.NewMatrix(n, n)
	for a := 0; a < 2; a++ {
		for s := 0; s < ms; s++ {
			row := a*ms + s
			for b := 0; b < 2; b++ {
				a0.Set(row, b*ms+s, d1.At(a, b))
				a1.Set(row, b*ms+s, d0.At(a, b))
			}
			for t := 0; t < ms; t++ {
				a1.Set(row, a*ms+t, a1.At(row, a*ms+t)+ph.S.At(s, t))
				a2.Set(row, a*ms+t, exit[s]*ph.Alpha[t])
			}
		}
	}
	return a0, a1, a2
}

// TestQBDResiduals checks the structured solve against the dense QBD
// equations: G = Y(I ⊗ β) must solve A2 + A1G + A0G² = 0 and be
// stochastic, and the R that applyR applies must solve
// A0 + RA1 + R²A2 = 0.
func TestQBDResiduals(t *testing.T) {
	type tc struct {
		name string
		arr  MMPP2
		sp   ServiceParams
	}
	cases := []tc{{"plan all", planArrival, planService(1, 1)}}
	for _, g := range []struct {
		arr   int
		rho   float64
		order int
	}{{0, 0.9, 4}, {1, 0.5, 32}, {2, 0.95, 4}, {2, 0.7, 16}} {
		arr, sp := gridCase(goldenArrivals[g.arr], g.rho, g.order)
		cases = append(cases, tc{fmt.Sprintf("arrival %d rho %v order %d", g.arr, g.rho, g.order), arr, sp})
	}
	for _, c := range cases {
		ph := c.sp.PH()
		q, err := newQBD(c.arr, ph)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a0, a1, a2 := denseBlocks(c.arr, ph)
		n := a1.Rows
		g, r := stats.NewMatrix(n, n), stats.NewMatrix(n, n)
		unit, col := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, q.y[j/q.ms][i]*ph.Alpha[j%q.ms])
			}
			unit[i] = 1
			q.applyR(col, unit)
			unit[i] = 0
			for k, v := range col {
				r.Set(k, i, v)
			}
		}
		zero := stats.NewMatrix(n, n)
		scale := a1.MaxAbsDiff(zero)
		if res := a2.Add(a1.Mul(g)).Add(a0.Mul(g).Mul(g)).MaxAbsDiff(zero) / scale; res > 1e-12 {
			t.Errorf("%s: |A2 + A1G + A0G²| / |A1| = %.3g", c.name, res)
		}
		if res := a0.Add(r.Mul(a1)).Add(r.Mul(r).Mul(a2)).MaxAbsDiff(zero) / scale; res > 1e-12 {
			t.Errorf("%s: |A0 + RA1 + R²A2| / |A1| = %.3g", c.name, res)
		}
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += g.At(i, j)
			}
			if !near(sum, 1, 1e-10) {
				t.Fatalf("%s: G row %d sums to %v, want 1", c.name, i, sum)
			}
		}
	}
}

func isUpperTriangular(s *stats.Matrix) bool {
	for i := 0; i < s.Rows; i++ {
		for j := 0; j < i; j++ {
			if s.At(i, j) != 0 {
				return false
			}
		}
	}
	return true
}

// TestPHSubGeneratorIsUpperTriangular pins the structure the queue solve
// back-substitutes through: every fit branch, and every service model
// ServiceParams.PH convolves, mixes and compresses from them, has an
// upper-triangular sub-generator.
func TestPHSubGeneratorIsUpperTriangular(t *testing.T) {
	fits := []struct {
		name string
		ph   PH
		dim  int
	}{
		{"exponential", PHFit2Moment(1, 1, 0), 1},
		{"hyperexponential", PHFit2Moment(1, 2.5, 0), 2},
		{"mixed Erlang", PHFit2Moment(1, 0.3, 0), 4},
		{"Erlang(max)", PHFit2Moment(1, 0.001, 8), 8},
		{"zero", PHZero(), 1},
	}
	for _, f := range fits {
		if f.ph.Dim() != f.dim {
			t.Fatalf("%s: %d phases, want %d (not the branch under test)", f.name, f.ph.Dim(), f.dim)
		}
		if !isUpperTriangular(f.ph.S) {
			t.Errorf("%s: S is not upper-triangular", f.name)
		}
	}
	checked := 0
	for _, pi := range []float64{0, 0.3, 1} {
		for _, enc := range [][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 0.5}, {0.2, 0.7}} {
			for _, ps := range []float64{1, 0.9} {
				for _, cv := range []float64{0, 0.1, 0.5, 1, 2} {
					for _, order := range []int{0, 4} {
						sp := ServiceParams{
							PI: pi, EncI: enc[0], EncP: enc[1],
							EncMeanI: 1e-3, EncSigmaI: cv * 1e-3,
							EncMeanP: 0.4e-3, EncSigmaP: cv * 0.4e-3,
							TxMeanI: 2e-3, TxSigmaI: cv * 2e-3,
							TxMeanP: 0.7e-3, TxSigmaP: cv * 0.7e-3,
							PS: ps, LambdaB: 800,
							MaxErlangOrder: order,
						}
						ph := sp.PH()
						if err := ph.Validate(); err != nil {
							t.Fatalf("%+v: %v", sp, err)
						}
						if !isUpperTriangular(ph.S) {
							t.Fatalf("%+v: S is not upper-triangular", sp)
						}
						checked++
					}
				}
			}
		}
	}
	if checked != 300 {
		t.Fatalf("checked %d service models, want 300", checked)
	}
}

// TestSolveQueueRejectsLowerTriangularS: the same Erlang chain numbered
// backwards has a lower-triangular S, which the solve must refuse rather
// than answer wrongly.
func TestSolveQueueRejectsLowerTriangularS(t *testing.T) {
	const k, mean, lambda = 3, 0.005, 100.0
	fwd := PHErlang(k, mean)
	bwd := PH{Alpha: make([]float64, k), S: stats.NewMatrix(k, k)}
	bwd.Alpha[k-1] = 1
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			bwd.S.Set(k-1-i, k-1-j, fwd.S.At(i, j))
		}
	}
	if err := bwd.Validate(); err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	if _, err := solveMMPPPH1(poissonArrivals(lambda), bwd, lambda, mean, rho); !errors.Is(err, errNotTriangular) {
		t.Fatalf("lower-triangular S: got %v, want errNotTriangular", err)
	}
	res, err := solveMMPPPH1(poissonArrivals(lambda), fwd, lambda, mean, rho)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MGOneWait(lambda, mean, fwd.Moment(2))
	if !relNear(res.MeanWait, want, 1e-9) {
		t.Fatalf("E[W] = %v want P-K %v", res.MeanWait, want)
	}
}

// TestSolveQueueAllocsFlat pins the solve's allocations: its scratch is
// sized once per call, so the count does not grow with the number of
// Newton or power-iteration steps.
func TestSolveQueueAllocsFlat(t *testing.T) {
	var lo, hi QueueResult
	arrLo, spLo := gridCase(goldenArrivals[2], 0.1, 32)
	arrHi, spHi := gridCase(goldenArrivals[2], 0.95, 32)
	allocsLo := testing.AllocsPerRun(10, func() { lo, _ = SolveQueue(arrLo, spLo) })
	allocsHi := testing.AllocsPerRun(10, func() { hi, _ = SolveQueue(arrHi, spHi) })
	if lo.Iterations >= hi.Iterations {
		t.Fatalf("want more Newton steps at rho 0.95 (%d) than at 0.1 (%d)", hi.Iterations, lo.Iterations)
	}
	if allocsLo != allocsHi {
		t.Fatalf("allocations grow with iterations: %v at %d steps, %v at %d", allocsLo, lo.Iterations, allocsHi, hi.Iterations)
	}
	if allocsHi > 64 {
		t.Fatalf("%v allocations per solve, want <= 64", allocsHi)
	}
}
