package hyper

import (
	"testing"

	"vnettracer/internal/sim"
)

const (
	us = int64(sim.Microsecond)
	ms = int64(sim.Millisecond)
)

func TestIdleCoreRunsWorkImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	v := p.AddVCPU("io", 256, false)
	var at int64 = -1
	v.Submit(10*us, func() { at = eng.Now() })
	eng.Run(1 * ms)
	if at != 10*us {
		t.Fatalf("work completed at %d, want %d", at, 10*us)
	}
	if v.Wakes != 1 || v.TotalWakeDelayNs != 0 {
		t.Fatalf("wake stats: %d wakes, %d delay", v.Wakes, v.TotalWakeDelayNs)
	}
}

func TestRatelimitDelaysWakeup(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig() // 1000us ratelimit
	p := NewPCPU(eng, cfg)
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)
	eng.Run(100 * us) // hog is mid-slice now

	var at int64 = -1
	submitted := eng.Now()
	io.Submit(5*us, func() { at = eng.Now() })
	eng.Run(5 * ms)
	if at < 0 {
		t.Fatal("I/O work never ran")
	}
	delay := at - submitted - 5*us
	// The hog was scheduled at ~0 and is protected until 1000us; the I/O
	// vCPU submitted at 100us must wait ~900us.
	if delay < 800*us || delay > 1000*us {
		t.Fatalf("wake delay = %dus, want ~900us (ratelimit window)", delay/us)
	}
}

func TestZeroRatelimitPreemptsImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RatelimitNs = 0
	p := NewPCPU(eng, cfg)
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)
	eng.Run(100 * us)

	var at int64 = -1
	submitted := eng.Now()
	io.Submit(5*us, func() { at = eng.Now() })
	eng.Run(5 * ms)
	delay := at - submitted - 5*us
	if delay > 1*us {
		t.Fatalf("wake delay = %dns with ratelimit=0, want ~0", delay)
	}
}

func TestPinnedPolicyNeverContends(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{Policy: Pinned, RatelimitNs: 1000 * us, CreditInitNs: 10 * ms}
	p := NewPCPU(eng, cfg)
	io := p.AddVCPU("io", 256, false)
	var at int64 = -1
	io.Submit(5*us, func() { at = eng.Now() })
	eng.Run(1 * ms)
	if at != 5*us {
		t.Fatalf("pinned vCPU ran at %d, want immediate", at)
	}
}

func TestSequentialPacketsSeeSawtoothDelays(t *testing.T) {
	// Packets arriving every 300us against a 1000us window see delays
	// that drift down and jump back up: the paper's Fig 11(b) pattern.
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)

	var delays []int64
	const n = 40
	for i := 0; i < n; i++ {
		sendAt := int64(i)*300*us + 50*us
		eng.Schedule(sendAt-eng.Now(), func() {
			submitted := eng.Now()
			io.Submit(5*us, func() {
				delays = append(delays, eng.Now()-submitted-5*us)
			})
		})
	}
	eng.Run(int64(n+5) * 300 * us)
	if len(delays) != n {
		t.Fatalf("got %d delays", len(delays))
	}
	var max int64
	increases, decreases := 0, 0
	for i, d := range delays {
		if d > max {
			max = d
		}
		if i > 0 {
			if d > delays[i-1] {
				increases++
			} else if d < delays[i-1] {
				decreases++
			}
		}
	}
	if max < 500*us || max > 1000*us {
		t.Fatalf("max delay %dus, want bounded by the 1000us ratelimit", max/us)
	}
	if increases == 0 || decreases == 0 {
		t.Fatalf("delays are monotone (inc=%d dec=%d), expected sawtooth: %v", increases, decreases, delays)
	}
}

func TestCreditBurnAndReset(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	p := NewPCPU(eng, cfg)
	hog := p.AddVCPU("hog", 256, true)
	eng.Run(100 * ms)
	if hog.RunNs < 90*ms {
		t.Fatalf("hog ran only %dms of 100ms on an otherwise idle core", hog.RunNs/ms)
	}
	// Credit must have been reset at least once (initial credit is 10ms).
	if hog.credit < -cfg.CreditInitNs {
		t.Fatalf("credit %d never reset", hog.credit)
	}
}

func TestCredit1BoostPreempts(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{Policy: Credit1, RatelimitNs: 0, CreditInitNs: 10 * ms}
	p := NewPCPU(eng, cfg)
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)
	eng.Run(200 * us)
	var at int64 = -1
	submitted := eng.Now()
	io.Submit(5*us, func() { at = eng.Now() })
	eng.Run(5 * ms)
	if at-submitted > 10*us {
		t.Fatalf("BOOSTed vCPU waited %dus", (at-submitted)/us)
	}
}

func TestCredit1RatelimitStillApplies(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{Policy: Credit1, RatelimitNs: 1000 * us, CreditInitNs: 10 * ms}
	p := NewPCPU(eng, cfg)
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)
	eng.Run(100 * us)
	var at int64 = -1
	submitted := eng.Now()
	io.Submit(5*us, func() { at = eng.Now() })
	eng.Run(5 * ms)
	delay := at - submitted - 5*us
	if delay < 800*us {
		t.Fatalf("credit1 wake delay = %dus, ratelimit should still bind", delay/us)
	}
}

func TestBackToBackWorkRunsWithoutBlocking(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	io := p.AddVCPU("io", 256, false)
	var done []int64
	io.Submit(10*us, func() { done = append(done, eng.Now()) })
	io.Submit(10*us, func() { done = append(done, eng.Now()) })
	eng.Run(1 * ms)
	if len(done) != 2 {
		t.Fatalf("completed %d items", len(done))
	}
	if done[1] != done[0]+10*us {
		t.Fatalf("second item at %d, want %d (no re-wake penalty)", done[1], done[0]+10*us)
	}
}

func TestTwoIOVCPUsShareFairly(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	a := p.AddVCPU("a", 256, false)
	b := p.AddVCPU("b", 256, false)
	doneA, doneB := 0, 0
	for i := 0; i < 100; i++ {
		at := int64(i) * 100 * us
		eng.Schedule(at, func() {
			a.Submit(5*us, func() { doneA++ })
			b.Submit(5*us, func() { doneB++ })
		})
	}
	eng.Run(100 * 100 * us)
	if doneA != 100 || doneB != 100 {
		t.Fatalf("doneA=%d doneB=%d", doneA, doneB)
	}
}

func TestMeanWakeDelayAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	p.AddVCPU("hog", 256, true)
	io := p.AddVCPU("io", 256, false)
	for i := 0; i < 10; i++ {
		eng.Schedule(int64(i)*2*ms, func() {
			io.Submit(5*us, func() {})
		})
	}
	eng.Run(30 * ms)
	if io.Wakes != 10 {
		t.Fatalf("Wakes = %d", io.Wakes)
	}
	if io.MeanWakeDelayNs() <= 0 {
		t.Fatal("mean wake delay should be positive under contention")
	}
	if io.MeanWakeDelayNs() > 1000*us {
		t.Fatalf("mean wake delay %dus exceeds the ratelimit bound", io.MeanWakeDelayNs()/us)
	}
}

func TestPolicyStrings(t *testing.T) {
	if Credit2.String() != "credit2" || Credit1.String() != "credit" || Pinned.String() != "pinned" {
		t.Fatal("policy names")
	}
	if Policy(42).String() != "policy(42)" {
		t.Fatal("unknown policy name")
	}
}

func TestConfigAccessorAndDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, Config{Policy: Credit2})
	if p.Config().CreditInitNs != DefaultConfig().CreditInitNs {
		t.Fatalf("credit default not applied: %+v", p.Config())
	}
	v := p.AddVCPU("w", 0, false) // weight 0 -> default 256
	if v.Weight != 256 {
		t.Fatalf("weight = %d", v.Weight)
	}
}

func TestWeightedVCPUGetsMoreCPU(t *testing.T) {
	// Two CPU-bound vCPUs with 4:1 weights share a core; credit refills
	// proportional to weight should skew runtime toward the heavy one.
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	heavy := p.AddVCPU("heavy", 1024, true)
	light := p.AddVCPU("light", 256, true)
	eng.Run(500 * ms)
	if heavy.RunNs <= light.RunNs {
		t.Fatalf("heavy ran %dms, light %dms: weights ignored", heavy.RunNs/ms, light.RunNs/ms)
	}
	ratio := float64(heavy.RunNs) / float64(light.RunNs)
	if ratio < 1.5 {
		t.Fatalf("runtime ratio %.2f too close to fair for 4:1 weights", ratio)
	}
}

func TestContextSwitchCounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	io := p.AddVCPU("io", 256, false)
	for i := 0; i < 5; i++ {
		eng.Schedule(int64(i)*ms, func() { io.Submit(10*us, func() {}) })
	}
	eng.Run(10 * ms)
	if p.ContextSwitches != 5 {
		t.Fatalf("context switches = %d, want 5", p.ContextSwitches)
	}
}

func TestMeanWakeDelayZeroWithoutWakes(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPCPU(eng, DefaultConfig())
	v := p.AddVCPU("idle", 256, false)
	if v.MeanWakeDelayNs() != 0 {
		t.Fatal("mean wake delay without wakes")
	}
}
