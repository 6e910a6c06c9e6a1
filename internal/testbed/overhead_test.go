package testbed

import (
	"testing"
)

func TestFig7aOverheadLatency(t *testing.T) {
	t.Parallel()
	res, err := RunOverheadLatency(2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Count != 2000 || res.Traced.Count != 2000 {
		t.Fatalf("counts: base=%d traced=%d", res.Baseline.Count, res.Traced.Count)
	}
	// Paper: "the average latency with vNetTracer increased less than 1%".
	if res.MeanOverheadPct < 0 || res.MeanOverheadPct > 1.0 {
		t.Errorf("mean overhead = %.2f%%, want (0, 1]%%", res.MeanOverheadPct)
	}
	if res.P999OverheadPct > 3.0 {
		t.Errorf("p99.9 overhead = %.2f%%, want small", res.P999OverheadPct)
	}
	// "vNetTracer did not introduce additional network packet loss".
	if res.TracedLoss != res.BaselineLoss {
		t.Errorf("loss changed: %.4f -> %.4f", res.BaselineLoss, res.TracedLoss)
	}
	// The pipeline must actually have traced packets.
	if res.TraceRecords == 0 {
		t.Error("no trace records collected; the traced run measured nothing")
	}
}

func TestFig7bOverheadThroughput1G(t *testing.T) {
	t.Parallel()
	res, err := RunOverheadThroughput(Gbps, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1G: base=%.0f vnt=%.0f (%.1f%%) stap=%.0f (%.1f%%)",
		res.BaselineBps, res.VNetBps, res.VNetLossPct, res.SystemTapBps, res.SystemTapLossPct)
	if res.BaselineBps < 500e6 {
		t.Fatalf("baseline %.0f too far below 1G", res.BaselineBps)
	}
	// vNetTracer: insignificant degradation.
	if res.VNetLossPct > 3 {
		t.Errorf("vNetTracer loss = %.1f%%, want < 3%%", res.VNetLossPct)
	}
	// SystemTap: around 10% loss.
	if res.SystemTapLossPct < 5 || res.SystemTapLossPct > 20 {
		t.Errorf("SystemTap loss = %.1f%%, want ~10%%", res.SystemTapLossPct)
	}
}

func TestFig7bOverheadThroughput10G(t *testing.T) {
	t.Parallel()
	res, err := RunOverheadThroughput(10*Gbps, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10G: base=%.0f vnt=%.0f (%.1f%%) stap=%.0f (%.1f%%)",
		res.BaselineBps, res.VNetBps, res.VNetLossPct, res.SystemTapBps, res.SystemTapLossPct)
	// SystemTap: around 26.5% loss, and strictly worse than at 1G.
	if res.SystemTapLossPct < 18 || res.SystemTapLossPct > 40 {
		t.Errorf("SystemTap loss = %.1f%%, want ~26.5%%", res.SystemTapLossPct)
	}
	if res.VNetLossPct > 5 {
		t.Errorf("vNetTracer loss = %.1f%%, want marginal", res.VNetLossPct)
	}
}
