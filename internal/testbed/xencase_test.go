package testbed

import (
	"testing"

	"vnettracer/internal/hyper"
)

func runXen(t *testing.T, cfg XenConfig) XenResult {
	t.Helper()
	if cfg.Requests == 0 {
		cfg.Requests = 1500
	}
	res, err := RunXenCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-30s %s wake=%.0fus", res.Label, res.AppLatency, res.MeanWakeDelayUs)
	return res
}

func TestFig10aXenSockperfTailLatency(t *testing.T) {
	t.Parallel()
	base := runXen(t, XenConfig{Workload: XenSockperf})
	cons := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 1000})
	fixed := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 0})

	// Paper: "the 99.9th percentile latency increased 22x compared to the
	// baseline". Require at least 10x.
	ratio := cons.AppLatency.P999Us / base.AppLatency.P999Us
	if ratio < 10 || ratio > 40 {
		t.Errorf("consolidated p99.9 ratio = %.1fx, want ~22x", ratio)
	}
	// Paper: "the network latency with rate limit disabled is close to the
	// baseline".
	if fixed.AppLatency.P999Us > base.AppLatency.P999Us*1.5 {
		t.Errorf("ratelimit=0 p99.9 %.1fus not close to baseline %.1fus",
			fixed.AppLatency.P999Us, base.AppLatency.P999Us)
	}
}

func TestFig10bXenMemcachedLatency(t *testing.T) {
	t.Parallel()
	base := runXen(t, XenConfig{Workload: XenMemcached, Requests: 3000})
	cons := runXen(t, XenConfig{Workload: XenMemcached, Consolidated: true, RatelimitUs: 1000, Requests: 3000})
	fixed := runXen(t, XenConfig{Workload: XenMemcached, Consolidated: true, RatelimitUs: 0, Requests: 3000})

	// Paper: "the average and tail latency of memcached increased 4.7x and
	// 7.5x respectively". Require the blowup band, tail worse than mean.
	meanRatio := cons.AppLatency.MeanUs / base.AppLatency.MeanUs
	tailRatio := cons.AppLatency.P999Us / base.AppLatency.P999Us
	if meanRatio < 2 || meanRatio > 10 {
		t.Errorf("memcached mean ratio = %.1fx, want ~4.7x", meanRatio)
	}
	if tailRatio < 3 || tailRatio > 15 {
		t.Errorf("memcached tail ratio = %.1fx, want ~7.5x", tailRatio)
	}
	if tailRatio <= meanRatio {
		t.Errorf("tail ratio %.1fx should exceed mean ratio %.1fx", tailRatio, meanRatio)
	}
	if fixed.AppLatency.MeanUs > base.AppLatency.MeanUs*1.5 {
		t.Errorf("ratelimit=0 mean %.1fus not close to baseline %.1fus",
			fixed.AppLatency.MeanUs, base.AppLatency.MeanUs)
	}
}

func TestFig11aIdleDecompositionWireDominates(t *testing.T) {
	t.Parallel()
	res := runXen(t, XenConfig{Workload: XenSockperf})
	// Paper: "when the I/O-bound VM executed alone, the client-to-server
	// transmission delay dominated the one way latency": the eth0->xenbr0
	// segment (the wire) is the largest.
	wire := res.SegmentMeans[0]
	for i := 1; i < 4; i++ {
		if res.SegmentMeans[i] >= wire {
			t.Errorf("segment %q (%.1fus) >= wire segment (%.1fus) in idle run",
				res.SegmentNames[i], res.SegmentMeans[i], wire)
		}
	}
	// Baseline jitter is a few microseconds (paper: (-7.2us, 9.2us)).
	if res.JitterHiUs > 20 || res.JitterLoUs < -20 {
		t.Errorf("baseline jitter (%.1f, %.1f)us too wide", res.JitterLoUs, res.JitterHiUs)
	}
}

func TestFig11bSchedulingDelayDominatesAndSawtooths(t *testing.T) {
	t.Parallel()
	res := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 1000})

	// Paper: "the time spent between the backend vif1.0 in Dom0 and
	// frontend eth1 in the server VM took more than 90% of the one way
	// latency".
	var total float64
	for _, m := range res.SegmentMeans {
		total += m
	}
	if frac := res.SegmentMeans[2] / total; frac < 0.9 {
		t.Errorf("vif1.0->eth1 fraction = %.2f, want > 0.9", frac)
	}

	// The scheduling delay is bounded by the 1000us ratelimit and forms a
	// sawtooth: it both rises toward the cap and falls back repeatedly.
	var maxSeg int64
	rises, falls := 0, 0
	var prev int64 = -1
	for _, pd := range res.PerPacket {
		s := pd.Segments[2]
		if s > maxSeg {
			maxSeg = s
		}
		if prev >= 0 {
			if s > prev+50*US {
				rises++
			}
			if s < prev-50*US {
				falls++
			}
		}
		prev = s
	}
	if maxSeg > 1100*US {
		t.Errorf("scheduling delay %dus exceeds the 1000us ratelimit bound", maxSeg/US)
	}
	if maxSeg < 500*US {
		t.Errorf("scheduling delay max %dus too small for a 1000us window", maxSeg/US)
	}
	if rises < 5 || falls < 5 {
		t.Errorf("no sawtooth: rises=%d falls=%d", rises, falls)
	}

	// Consolidated jitter explodes (paper: (-117.8us, 1041.4us)).
	if res.JitterHiUs < 100 {
		t.Errorf("consolidated jitter high %.1fus, want >> baseline", res.JitterHiUs)
	}
}

func TestXenCredit1AlsoAffected(t *testing.T) {
	t.Parallel()
	// Paper: "such a solution also works for the same issue in credit1".
	cons := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 1000, Policy: hyper.Credit1})
	fixed := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 0, Policy: hyper.Credit1})
	if cons.AppLatency.P999Us < 5*fixed.AppLatency.P999Us {
		t.Errorf("credit1: ratelimit tail %.1fus vs fixed %.1fus — issue not reproduced",
			cons.AppLatency.P999Us, fixed.AppLatency.P999Us)
	}
}

func TestXenSkewEstimationAccurate(t *testing.T) {
	t.Parallel()
	res := runXen(t, XenConfig{Workload: XenSockperf})
	err := res.SkewEstimateNs - res.SkewTruthNs
	if err < 0 {
		err = -err
	}
	// Cristian with min-RTT sampling should land within a few
	// microseconds of the 3ms ground truth.
	if err > 10*US {
		t.Errorf("skew estimate off by %dns (est %d truth %d)", err, res.SkewEstimateNs, res.SkewTruthNs)
	}
}

func TestXenTracedDiagnosisMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	// The traced vif->eth1 segment must agree with the scheduler's own
	// wake-delay accounting: the tracer's diagnosis is correct.
	res := runXen(t, XenConfig{Workload: XenSockperf, Consolidated: true, RatelimitUs: 1000})
	traced := res.SegmentMeans[2]
	truth := res.MeanWakeDelayUs
	if traced < truth*0.5 || traced > truth*1.5 {
		t.Errorf("traced scheduling delay %.1fus vs ground truth wake delay %.1fus", traced, truth)
	}
}
