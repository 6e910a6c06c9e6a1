package testbed

import "testing"

// runCase is a test helper with a reduced ping count for speed.
func runCase(t *testing.T, cfg OVSCaseConfig) OVSCaseResult {
	t.Helper()
	cfg.Pings = 2000
	res, err := RunOVSCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-9s %s loss=%.3f segs=%v", res.Label, res.Sockperf, res.LossRate, res.Segments)
	return res
}

func TestFig8bCongestionRaisesTailLatency(t *testing.T) {
	t.Parallel()
	caseI := runCase(t, OVSCaseConfig{})
	caseII := runCase(t, OVSCaseConfig{IperfVM0: 1})
	caseIII := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1})

	if caseI.LossRate != 0 {
		t.Errorf("Case I loss = %.3f, want 0", caseI.LossRate)
	}
	// Tail latency rises sharply from I to II, and again from II to III.
	if caseII.Sockperf.P999Us < 10*caseI.Sockperf.P999Us {
		t.Errorf("Case II p99.9 %.1fus not >>10x Case I %.1fus",
			caseII.Sockperf.P999Us, caseI.Sockperf.P999Us)
	}
	if caseIII.Sockperf.P999Us <= caseII.Sockperf.P999Us {
		t.Errorf("Case III p99.9 %.1fus not above Case II %.1fus",
			caseIII.Sockperf.P999Us, caseII.Sockperf.P999Us)
	}
}

func TestFig9aOVSDominatesDecomposition(t *testing.T) {
	t.Parallel()
	res := runCase(t, OVSCaseConfig{IperfVM0: 1})
	var ovsMean, otherMean float64
	for _, s := range res.Segments {
		if s.Count == 0 {
			t.Fatalf("segment %s has no joined packets", s.Name)
		}
		if s.Name == "ovs" {
			ovsMean = s.MeanUs
		} else {
			otherMean += s.MeanUs
		}
	}
	// Paper: "the time spent inside the OVS dominated the total
	// transmission time".
	if ovsMean < 10*otherMean {
		t.Errorf("OVS segment %.1fus does not dominate stacks %.1fus", ovsMean, otherMean)
	}
}

func TestFig9aIngressSaturationGapFlat(t *testing.T) {
	t.Parallel()
	caseII := runCase(t, OVSCaseConfig{IperfVM0: 1})
	caseIIPlus := runCase(t, OVSCaseConfig{IperfVM0: 3})
	ovsII := segMean(t, caseII, "ovs")
	ovsIIPlus := segMean(t, caseIIPlus, "ovs")
	// Paper: "such a gap does not increase when we added more application
	// clients on VM0 in Case II+ because the queue at ingress is highly
	// saturated". Allow 15% slack.
	if ovsIIPlus > ovsII*1.15 || ovsIIPlus < ovsII*0.85 {
		t.Errorf("Case II+ OVS segment %.1fus should stay near Case II %.1fus", ovsIIPlus, ovsII)
	}
}

func TestFig9aCrossPortGapGrows(t *testing.T) {
	t.Parallel()
	caseIII := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1})
	caseIIIPlus := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 3})
	ovsIII := segMean(t, caseIII, "ovs")
	ovsIIIPlus := segMean(t, caseIIIPlus, "ovs")
	// Paper: the cross-port processing delay "increased when more clients
	// are sending packets through more OVS ingress ports in Case III+".
	if ovsIIIPlus <= ovsIII*1.2 {
		t.Errorf("Case III+ OVS segment %.1fus should exceed Case III %.1fus", ovsIIIPlus, ovsIII)
	}
}

func TestFig9bRateLimitRestoresLatency(t *testing.T) {
	t.Parallel()
	congested := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1})
	policed := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Police: true})
	if policed.PolicerDrops == 0 {
		t.Fatal("policer never dropped: mitigation inactive")
	}
	// Paper: "both the average and tail latency of Sockperf decreased
	// significantly with rate limit in the OVS".
	if policed.Sockperf.MeanUs > congested.Sockperf.MeanUs/5 {
		t.Errorf("policed mean %.1fus not <<5x congested %.1fus",
			policed.Sockperf.MeanUs, congested.Sockperf.MeanUs)
	}
	if policed.Sockperf.P999Us > congested.Sockperf.P999Us {
		t.Errorf("policed p99.9 %.1fus above congested %.1fus",
			policed.Sockperf.P999Us, congested.Sockperf.P999Us)
	}
}

func TestFig9bHTBShaperSimilar(t *testing.T) {
	t.Parallel()
	// Paper: "we also tried setting QoS policy with Hierarchy Token Bucket
	// (HTB) at the virtual port of OVS ... The effect was similar as the
	// results using rate limit".
	congested := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1})
	shaped := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, HTB: true})
	if shaped.ShaperDrops == 0 {
		t.Fatal("HTB qdisc never dropped: shaping inactive")
	}
	if shaped.Sockperf.MeanUs > congested.Sockperf.MeanUs/5 {
		t.Errorf("HTB mean %.1fus not <<5x congested %.1fus",
			shaped.Sockperf.MeanUs, congested.Sockperf.MeanUs)
	}
	// Similar to the policing mitigation.
	policed := runCase(t, OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Police: true})
	if shaped.Sockperf.MeanUs > 5*policed.Sockperf.MeanUs {
		t.Errorf("HTB mean %.1fus not similar to policing %.1fus",
			shaped.Sockperf.MeanUs, policed.Sockperf.MeanUs)
	}
}

func segMean(t *testing.T, res OVSCaseResult, name string) float64 {
	t.Helper()
	for _, s := range res.Segments {
		if s.Name == name {
			return s.MeanUs
		}
	}
	t.Fatalf("segment %q missing in %s", name, res.Label)
	return 0
}
