// Package clocksync implements Cristian's probabilistic clock
// synchronization as the paper applies it (Section III-B, Figure 4):
// timestamp probe packets at both NICs, take the sample with the minimum
// round-trip time to bound network interference, estimate the one-way
// transmission time as (T_RTT - T_Pro) / 2, and derive the clock offset
// between master and monitored node.
package clocksync

import (
	"errors"
	"fmt"
)

// DefaultSamples is the paper's sample count ("we sample 100 packet
// records and chose the minimum one").
const DefaultSamples = 100

// Sample is one probe exchange: T1 = client send, T2 = server receive,
// T3 = server reply, T4 = client receive. T1/T4 are on the client clock,
// T2/T3 on the server clock.
type Sample struct {
	T1 int64
	T2 int64
	T3 int64
	T4 int64
}

// RTT returns the round-trip time T4 - T1 minus nothing (raw).
func (s Sample) RTT() int64 { return s.T4 - s.T1 }

// Processing returns the server-side processing time T3 - T2.
func (s Sample) Processing() int64 { return s.T3 - s.T2 }

// Estimate is the result of skew estimation.
type Estimate struct {
	// SkewNs is the server clock minus the client clock: a server
	// timestamp t2 aligns to the client timeline as t2 - SkewNs.
	SkewNs int64
	// OneWayNs is the estimated one-way transmission time.
	OneWayNs int64
	// BestRTTNs is the round-trip time of the chosen sample.
	BestRTTNs int64
	// Samples is the number of samples considered.
	Samples int
}

// Validation errors.
var (
	ErrNoSamples = errors.New("clocksync: no samples")
	ErrBadSample = errors.New("clocksync: sample violates causality")
)

// EstimateSkew runs Cristian's algorithm over the samples: the sample with
// the minimum RTT wins; one-way time is (T_RTT - T_Pro)/2; the skew is
// T2 - (T1 + T_1wt).
func EstimateSkew(samples []Sample) (Estimate, error) {
	if len(samples) == 0 {
		return Estimate{}, ErrNoSamples
	}
	best := -1
	var bestRTT int64
	for i, s := range samples {
		if s.T4 < s.T1 || s.T3 < s.T2 {
			return Estimate{}, fmt.Errorf("%w: sample %d: %+v", ErrBadSample, i, s)
		}
		if s.Processing() > s.RTT() {
			// Server claims more processing than the whole round trip:
			// clocks are fine but the sample is useless; skip it.
			continue
		}
		if best < 0 || s.RTT() < bestRTT {
			best = i
			bestRTT = s.RTT()
		}
	}
	if best < 0 {
		return Estimate{}, fmt.Errorf("%w: all samples unusable", ErrNoSamples)
	}
	s := samples[best]
	oneWay := (s.RTT() - s.Processing()) / 2
	return Estimate{
		SkewNs:    s.T2 - (s.T1 + oneWay),
		OneWayNs:  oneWay,
		BestRTTNs: bestRTT,
		Samples:   len(samples),
	}, nil
}

// AbsSkewNs returns the magnitude of the skew, the form the paper states
// (ΔT_skew = |T1 + T_1wt - T2|).
func (e Estimate) AbsSkewNs() int64 {
	if e.SkewNs < 0 {
		return -e.SkewNs
	}
	return e.SkewNs
}

// DriftEstimate extends the offset estimate with a relative frequency
// error: real clocks do not just start offset, they tick at slightly
// different rates, so a single offset measured at the start of a long
// trace mis-aligns its end. EstimateDrift fits offset(t) = a + b*t by
// least squares over per-sample midpoint offsets; b is the drift in parts
// per billion.
type DriftEstimate struct {
	// OffsetAtT0Ns is the server-minus-client offset at client time T0.
	OffsetAtT0Ns int64
	// T0Ns is the reference client time (the first sample's T1).
	T0Ns int64
	// DriftPPB is the server clock's rate error relative to the client,
	// in parts per billion.
	DriftPPB float64
	// Samples is the number of samples fitted.
	Samples int
}

// CorrectNs returns the offset to subtract from a server timestamp taken
// while the client clock read clientNs.
func (d DriftEstimate) CorrectNs(clientNs int64) int64 {
	return d.OffsetAtT0Ns + int64(d.DriftPPB*float64(clientNs-d.T0Ns)/1e9)
}

// EstimateDrift fits offset and drift over samples spread in time.
// Samples claiming more server processing than the whole round trip are
// skipped, exactly as EstimateSkew skips them — a single such garbage
// sample has a wildly negative one-way estimate and poisons the
// least-squares fit. At least two usable samples with distinct T1 are
// required; with tightly clustered samples the drift term is unreliable
// and an error is returned. Samples in the result counts usable samples.
func EstimateDrift(samples []Sample) (DriftEstimate, error) {
	if len(samples) < 2 {
		return DriftEstimate{}, fmt.Errorf("%w: need >= 2 samples for drift", ErrNoSamples)
	}
	var t0 int64
	var n float64
	var sumX, sumY, sumXX, sumXY float64
	for i, s := range samples {
		if s.T4 < s.T1 || s.T3 < s.T2 {
			return DriftEstimate{}, fmt.Errorf("%w: sample %d", ErrBadSample, i)
		}
		if s.Processing() > s.RTT() {
			// Server claims more processing than the whole round trip:
			// clocks are fine but the sample is useless; skip it.
			continue
		}
		if n == 0 {
			t0 = s.T1
		}
		oneWay := (s.RTT() - s.Processing()) / 2
		offset := float64(s.T2 - (s.T1 + oneWay))
		x := float64(s.T1 - t0)
		n++
		sumX += x
		sumY += offset
		sumXX += x * x
		sumXY += x * offset
	}
	if n < 2 {
		return DriftEstimate{}, fmt.Errorf("%w: fewer than 2 usable samples for drift", ErrNoSamples)
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return DriftEstimate{}, fmt.Errorf("%w: samples not spread in time", ErrBadSample)
	}
	b := (n*sumXY - sumX*sumY) / den // ns of offset per ns of client time
	a := (sumY - b*sumX) / n
	return DriftEstimate{
		OffsetAtT0Ns: int64(a),
		T0Ns:         t0,
		DriftPPB:     b * 1e9,
		Samples:      int(n),
	}, nil
}
