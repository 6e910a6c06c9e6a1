package testbed

import "testing"

func TestNewLatencyStats(t *testing.T) {
	t.Parallel()
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i+1) * 1000 // 1..1000 us
	}
	s := NewLatencyStats(ns)
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MeanUs != 500.5 {
		t.Fatalf("mean = %f", s.MeanUs)
	}
	if s.P50Us != 500 || s.P999Us != 999 || s.MaxUs != 1000 {
		t.Fatalf("percentiles = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := NewLatencyStats(nil)
	if empty.Count != 0 || empty.MeanUs != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestCaseLabels(t *testing.T) {
	t.Parallel()
	tests := []struct {
		cfg  OVSCaseConfig
		want string
	}{
		{OVSCaseConfig{}, "Case I"},
		{OVSCaseConfig{IperfVM0: 1}, "Case II"},
		{OVSCaseConfig{IperfVM0: 3}, "Case II+"},
		{OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1}, "Case III"},
		{OVSCaseConfig{IperfVM0: 1, ExtraVMs: 3}, "Case III+"},
	}
	for _, tc := range tests {
		if got := caseLabel(tc.cfg); got != tc.want {
			t.Errorf("caseLabel(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

func TestXenLabels(t *testing.T) {
	t.Parallel()
	if got := xenLabel(XenConfig{}); got != "baseline (I/O VM alone)" {
		t.Errorf("label = %q", got)
	}
	if got := xenLabel(XenConfig{Consolidated: true, RatelimitUs: 1000}); got != "consolidated, ratelimit=1000us" {
		t.Errorf("label = %q", got)
	}
	if got := xenLabel(XenConfig{Consolidated: true}); got != "consolidated, ratelimit=0" {
		t.Errorf("label = %q", got)
	}
}
