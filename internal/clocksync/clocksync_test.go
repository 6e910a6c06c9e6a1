package clocksync

import (
	"errors"
	"math/rand"
	"testing"
)

func TestEstimateSkewExact(t *testing.T) {
	// Server clock is +500 ahead; symmetric 100ns one-way; 50ns processing.
	s := Sample{T1: 1000, T2: 1000 + 100 + 500, T3: 1000 + 150 + 500, T4: 1250}
	est, err := EstimateSkew([]Sample{s})
	if err != nil {
		t.Fatal(err)
	}
	if est.OneWayNs != 100 {
		t.Fatalf("one-way = %d, want 100", est.OneWayNs)
	}
	if est.SkewNs != 500 {
		t.Fatalf("skew = %d, want 500", est.SkewNs)
	}
	if est.AbsSkewNs() != 500 {
		t.Fatalf("abs = %d", est.AbsSkewNs())
	}
}

func TestEstimateSkewNegative(t *testing.T) {
	// Server clock 300 behind.
	s := Sample{T1: 1000, T2: 1000 + 100 - 300, T3: 1000 + 120 - 300, T4: 1220}
	est, err := EstimateSkew([]Sample{s})
	if err != nil {
		t.Fatal(err)
	}
	if est.SkewNs != -300 {
		t.Fatalf("skew = %d, want -300", est.SkewNs)
	}
	if est.AbsSkewNs() != 300 {
		t.Fatalf("abs = %d", est.AbsSkewNs())
	}
}

func TestMinimumRTTSampleWins(t *testing.T) {
	const trueSkew = 2000
	rng := rand.New(rand.NewSource(7))
	samples := make([]Sample, 0, DefaultSamples)
	for i := 0; i < DefaultSamples; i++ {
		// Asymmetric queueing noise inflates most samples; the cleanest
		// sample has 100ns each way.
		noiseOut := rng.Int63n(5000)
		noiseBack := rng.Int63n(5000)
		if i == 42 {
			noiseOut, noiseBack = 0, 0
		}
		t1 := int64(1_000_000 + i*10_000)
		t2 := t1 + 100 + noiseOut + trueSkew
		t3 := t2 + 50
		t4 := t1 + 100 + noiseOut + 50 + 100 + noiseBack
		samples = append(samples, Sample{T1: t1, T2: t2, T3: t3, T4: t4})
	}
	est, err := EstimateSkew(samples)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != DefaultSamples {
		t.Fatalf("samples = %d", est.Samples)
	}
	if est.SkewNs != trueSkew {
		t.Fatalf("skew = %d, want %d (minimum-RTT sample is noise-free)", est.SkewNs, trueSkew)
	}
}

func TestEstimateSkewErrors(t *testing.T) {
	if _, err := EstimateSkew(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty: %v", err)
	}
	bad := Sample{T1: 100, T2: 50, T3: 40, T4: 90}
	if _, err := EstimateSkew([]Sample{bad}); !errors.Is(err, ErrBadSample) {
		t.Fatalf("causality: %v", err)
	}
	// A sample whose processing exceeds the RTT is skipped; with only such
	// samples estimation fails.
	weird := Sample{T1: 100, T2: 1000, T3: 5000, T4: 200}
	if _, err := EstimateSkew([]Sample{weird}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("unusable: %v", err)
	}
}

func TestAccuracyBoundedByAsymmetry(t *testing.T) {
	// With asymmetric best-case paths the estimate is off by at most half
	// the asymmetry — a property of Cristian's algorithm worth pinning.
	const trueSkew = 1000
	const out, back = 100, 300 // asymmetric one-way times
	s := Sample{T1: 0, T2: out + trueSkew, T3: out + trueSkew + 10, T4: out + 10 + back}
	est, err := EstimateSkew([]Sample{s})
	if err != nil {
		t.Fatal(err)
	}
	errNs := est.SkewNs - trueSkew
	if errNs < 0 {
		errNs = -errNs
	}
	if errNs > (back-out)/2 {
		t.Fatalf("error %d exceeds asymmetry bound %d", errNs, (back-out)/2)
	}
}

func TestEstimateDriftRecoversRate(t *testing.T) {
	// Server clock: +1ms offset at t=0, gaining 2000 ppb (2us/s).
	const offset = 1_000_000
	const driftPPB = 2000.0
	mk := func(t1 int64) Sample {
		serverAhead := offset + int64(driftPPB*float64(t1)/1e9)
		return Sample{
			T1: t1,
			T2: t1 + 100 + serverAhead,
			T3: t1 + 150 + serverAhead,
			T4: t1 + 250,
		}
	}
	var samples []Sample
	for i := int64(0); i < 100; i++ {
		samples = append(samples, mk(i*10_000_000_000)) // every 10s
	}
	est, err := EstimateDrift(samples)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 100 {
		t.Fatalf("samples = %d", est.Samples)
	}
	if est.DriftPPB < driftPPB-50 || est.DriftPPB > driftPPB+50 {
		t.Fatalf("drift = %.1f ppb, want ~%.0f", est.DriftPPB, driftPPB)
	}
	if est.OffsetAtT0Ns < offset-1000 || est.OffsetAtT0Ns > offset+1000 {
		t.Fatalf("offset = %d, want ~%d", est.OffsetAtT0Ns, offset)
	}
	// Correction at t=1000s: offset should have grown by 2ms.
	at := int64(1000_000_000_000)
	want := offset + int64(driftPPB*float64(at)/1e9)
	got := est.CorrectNs(at)
	if got < want-5000 || got > want+5000 {
		t.Fatalf("CorrectNs(%d) = %d, want ~%d", at, got, want)
	}
}

func TestEstimateDriftBeatsStaticOffsetOnLongTraces(t *testing.T) {
	// With 5000 ppb drift over 10 minutes, a static offset from the start
	// of the trace is off by ~3ms at the end; the drift fit stays tight.
	const driftPPB = 5000.0
	mk := func(t1 int64) Sample {
		ahead := int64(driftPPB * float64(t1) / 1e9)
		return Sample{T1: t1, T2: t1 + 100 + ahead, T3: t1 + 120 + ahead, T4: t1 + 220}
	}
	var samples []Sample
	for i := int64(0); i < 60; i++ {
		samples = append(samples, mk(i*10_000_000_000))
	}
	static, err := EstimateSkew(samples[:1])
	if err != nil {
		t.Fatal(err)
	}
	fit, err := EstimateDrift(samples)
	if err != nil {
		t.Fatal(err)
	}
	end := int64(600_000_000_000)
	trueOffset := int64(driftPPB * float64(end) / 1e9)
	staticErr := abs64(static.SkewNs - trueOffset)
	fitErr := abs64(fit.CorrectNs(end) - trueOffset)
	if staticErr < 1_000_000 {
		t.Fatalf("test inert: static error only %dns", staticErr)
	}
	if fitErr*100 > staticErr {
		t.Fatalf("drift fit error %dns not <<100x static error %dns", fitErr, staticErr)
	}
}

func TestEstimateDriftErrors(t *testing.T) {
	if _, err := EstimateDrift(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty: %v", err)
	}
	s := Sample{T1: 100, T2: 200, T3: 210, T4: 300}
	if _, err := EstimateDrift([]Sample{s, s}); !errors.Is(err, ErrBadSample) {
		t.Fatalf("clustered: %v", err)
	}
	bad := Sample{T1: 100, T2: 50, T3: 40, T4: 90}
	if _, err := EstimateDrift([]Sample{s, bad}); !errors.Is(err, ErrBadSample) {
		t.Fatalf("causality: %v", err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestEstimateDriftSkipsGarbageSamples is the regression for EstimateDrift
// feeding samples with Processing() > RTT() into the least-squares fit:
// EstimateSkew always skipped them, but the drift fit did not, so one
// garbage sample (a wildly negative one-way estimate) poisoned the slope.
func TestEstimateDriftSkipsGarbageSamples(t *testing.T) {
	const offset = 1_000_000
	const driftPPB = 2000.0
	mk := func(t1 int64) Sample {
		serverAhead := offset + int64(driftPPB*float64(t1)/1e9)
		return Sample{
			T1: t1,
			T2: t1 + 100 + serverAhead,
			T3: t1 + 150 + serverAhead,
			T4: t1 + 250,
		}
	}
	var samples []Sample
	for i := int64(0); i < 100; i++ {
		samples = append(samples, mk(i*10_000_000_000))
	}
	// One garbage sample mid-trace: the server claims 10ms of processing
	// inside a 250ns round trip (e.g. a scheduling stall between the two
	// server timestamps). Causality holds, so it is not rejected — it must
	// be skipped.
	garbage := samples[50]
	garbage.T3 = garbage.T2 + 10_000_000
	samples[50] = garbage

	est, err := EstimateDrift(samples)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 99 {
		t.Fatalf("usable samples = %d, want 99", est.Samples)
	}
	if est.DriftPPB < driftPPB-50 || est.DriftPPB > driftPPB+50 {
		t.Fatalf("drift = %.1f ppb poisoned by garbage sample, want ~%.0f", est.DriftPPB, driftPPB)
	}
	if est.OffsetAtT0Ns < offset-1000 || est.OffsetAtT0Ns > offset+1000 {
		t.Fatalf("offset = %d, want ~%d", est.OffsetAtT0Ns, offset)
	}
}

// TestEstimateDriftTooFewUsableSamples: filtering must error out when
// fewer than two usable samples remain, matching EstimateSkew's behavior
// instead of fitting a line through garbage.
func TestEstimateDriftTooFewUsableSamples(t *testing.T) {
	good := Sample{T1: 0, T2: 1100, T3: 1150, T4: 250}
	bad := Sample{T1: 10_000, T2: 11_100, T3: 11_100 + 10_000_000, T4: 10_250}
	if _, err := EstimateDrift([]Sample{good, bad}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("one usable sample: err = %v, want ErrNoSamples", err)
	}
	bad2 := bad
	bad2.T1, bad2.T4 = 20_000, 20_250
	if _, err := EstimateDrift([]Sample{bad, bad2}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("all garbage: err = %v, want ErrNoSamples", err)
	}
}
