// Package hyper models hypervisor CPU scheduling: the Xen credit and
// credit2 schedulers including the context-switch rate limit
// (ratelimit_us) that case study II identifies as the cause of 22x tail
// latency inflation, and a KVM-pinned mode where vCPUs own their physical
// cores.
//
// The unit simulated is one physical CPU (PCPU) with the virtual CPUs
// pinned to it, which matches the paper's experiment (two 1-vCPU VMs
// pinned to one core). An I/O-bound vCPU sleeps until packets arrive and
// runs briefly; a CPU-bound vCPU always wants the core. With the default
// 1000 microsecond rate limit, a woken I/O vCPU with higher credit must
// still wait out the remainder of the running vCPU's window — that wait is
// the scheduling delay vNetTracer's decomposition exposes between the
// Dom0 backend (vif) and the guest's frontend (eth).
package hyper

import (
	"fmt"

	"vnettracer/internal/sim"
)

// Policy selects the scheduler algorithm.
type Policy int

// Scheduler policies.
const (
	// Credit2 orders runnable vCPUs purely by remaining credit (the
	// paper: "vCPU priorities used in credit1 ... were all removed and
	// all the vCPUs were just ordered by their credit").
	Credit2 Policy = iota + 1
	// Credit1 uses the BOOST/UNDER/OVER priority classes.
	Credit1
	// Pinned models KVM with dedicated cores: a woken vCPU runs
	// immediately; there is never competition.
	Pinned
)

func (p Policy) String() string {
	switch p {
	case Credit2:
		return "credit2"
	case Credit1:
		return "credit"
	case Pinned:
		return "pinned"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config tunes a PCPU scheduler.
type Config struct {
	Policy Policy
	// RatelimitNs is the minimum uninterrupted slice a scheduled vCPU is
	// guaranteed before preemption (Xen's ratelimit_us, default 1000us;
	// the paper's fix is setting it to 0).
	RatelimitNs int64
	// CreditInitNs is the credit a vCPU holds after a reset, scaled by
	// weight. Credits burn 1:1 with run time.
	CreditInitNs int64
}

// DefaultConfig returns Xen defaults: credit2, 1000us ratelimit.
func DefaultConfig() Config {
	return Config{
		Policy:       Credit2,
		RatelimitNs:  1000 * int64(sim.Microsecond),
		CreditInitNs: 10 * int64(sim.Millisecond),
	}
}

// priority classes for credit1.
type prio int

const (
	prioOver prio = iota
	prioUnder
	prioBoost
)

// workItem is a unit of guest work executed when the vCPU holds the core.
type workItem struct {
	costNs int64
	fn     func()
}

// VCPU is a virtual CPU pinned to one PCPU.
type VCPU struct {
	Name   string
	Weight int

	pcpu     *PCPU
	credit   int64
	runnable bool
	cpuBound bool
	boosted  bool

	queue   []workItem
	wakeAt  int64
	hasWake bool

	// TotalWakeDelayNs and Wakes accumulate wake-to-run latency; the
	// traced per-packet delays come from eBPF timestamps, these are
	// ground truth for validation.
	TotalWakeDelayNs int64
	Wakes            uint64
	RunNs            int64
}

// PCPU is one physical core running pinned vCPUs under a policy.
type PCPU struct {
	eng *sim.Engine
	cfg Config

	vcpus    []*VCPU
	running  *VCPU
	runStart int64

	preemptTimer *sim.Timer

	// ContextSwitches counts dispatches, for the ablation bench.
	ContextSwitches uint64
}

// NewPCPU creates a physical core.
func NewPCPU(eng *sim.Engine, cfg Config) *PCPU {
	if cfg.CreditInitNs <= 0 {
		cfg.CreditInitNs = DefaultConfig().CreditInitNs
	}
	return &PCPU{eng: eng, cfg: cfg}
}

// Config returns the scheduler configuration.
func (p *PCPU) Config() Config { return p.cfg }

// AddVCPU pins a vCPU to this core. cpuBound marks a vCPU that always
// wants the core (a spin loop guest); it becomes runnable immediately.
func (p *PCPU) AddVCPU(name string, weight int, cpuBound bool) *VCPU {
	if weight <= 0 {
		weight = 256
	}
	v := &VCPU{
		Name:     name,
		Weight:   weight,
		pcpu:     p,
		cpuBound: cpuBound,
		credit:   p.cfg.CreditInitNs * int64(weight) / 256,
	}
	p.vcpus = append(p.vcpus, v)
	if cpuBound {
		v.runnable = true
		p.eng.Schedule(0, p.dispatch)
	}
	return v
}

// Submit queues guest work on the vCPU and wakes it. fn runs once the vCPU
// has been scheduled and costNs of guest time has elapsed. This is the
// entry point the device layer uses to deliver a packet into a guest.
func (v *VCPU) Submit(costNs int64, fn func()) {
	v.queue = append(v.queue, workItem{costNs: costNs, fn: fn})
	v.pcpu.wake(v)
}

// MeanWakeDelayNs reports the average wake-to-run delay.
func (v *VCPU) MeanWakeDelayNs() int64 {
	if v.Wakes == 0 {
		return 0
	}
	return v.TotalWakeDelayNs / int64(v.Wakes)
}

// wake marks v runnable and applies the policy's preemption rules.
func (p *PCPU) wake(v *VCPU) {
	now := p.eng.Now()
	if !v.runnable {
		v.runnable = true
		v.wakeAt = now
		v.hasWake = true
		if p.cfg.Policy == Credit1 && v.credit > 0 {
			v.boosted = true
		}
	}
	if p.running == v {
		return
	}
	if p.running == nil {
		p.dispatch()
		return
	}
	if !p.preempts(v, p.running) {
		return
	}
	// The woken vCPU beats the running one, but the rate limit protects
	// the running vCPU's slice.
	earliest := p.runStart + p.cfg.RatelimitNs
	if earliest <= now {
		p.stopRunning(true)
		p.dispatch()
		return
	}
	if p.preemptTimer != nil && p.preemptTimer.Pending() {
		return // a preemption is already scheduled
	}
	p.preemptTimer = p.eng.Schedule(earliest-now, func() {
		if p.running != nil && p.bestWaiter() != nil {
			p.stopRunning(true)
			p.dispatch()
		}
	})
}

// effectiveCredit returns a vCPU's credit including the burn of any
// in-flight run slice, so preemption decisions see up-to-date balances.
func (p *PCPU) effectiveCredit(v *VCPU) int64 {
	c := v.credit
	if v == p.running {
		c -= p.eng.Now() - p.runStart
	}
	return c
}

// preempts reports whether a beats b under the policy.
func (p *PCPU) preempts(a, b *VCPU) bool {
	switch p.cfg.Policy {
	case Pinned:
		return false // each vCPU owns a core; never contended
	case Credit1:
		pa, pb := credit1Prio(a), credit1Prio(b)
		if pa != pb {
			return pa > pb
		}
		return false
	default: // Credit2
		return p.effectiveCredit(a) > p.effectiveCredit(b)
	}
}

func credit1Prio(v *VCPU) prio {
	switch {
	case v.boosted:
		return prioBoost
	case v.credit > 0:
		return prioUnder
	default:
		return prioOver
	}
}

// bestWaiter returns the runnable vCPU (excluding the running one) that
// would preempt the running vCPU, or nil.
func (p *PCPU) bestWaiter() *VCPU {
	var best *VCPU
	for _, v := range p.vcpus {
		if !v.runnable || v == p.running {
			continue
		}
		if best == nil || p.betterThan(v, best) {
			best = v
		}
	}
	if best != nil && p.running != nil && !p.preempts(best, p.running) {
		return nil
	}
	return best
}

// betterThan orders runnable vCPUs for dispatch.
func (p *PCPU) betterThan(a, b *VCPU) bool {
	if p.cfg.Policy == Credit1 {
		pa, pb := credit1Prio(a), credit1Prio(b)
		if pa != pb {
			return pa > pb
		}
	}
	return p.effectiveCredit(a) > p.effectiveCredit(b)
}

// stopRunning burns the running vCPU's credit and releases the core.
// preempted keeps a CPU-bound vCPU runnable.
func (p *PCPU) stopRunning(preempted bool) {
	v := p.running
	if v == nil {
		return
	}
	ran := p.eng.Now() - p.runStart
	v.credit -= ran
	v.RunNs += ran
	v.runnable = preempted && v.cpuBound || len(v.queue) > 0
	p.running = nil
	if p.preemptTimer != nil {
		p.preemptTimer.Cancel()
		p.preemptTimer = nil
	}
}

// dispatch picks the best runnable vCPU and runs it.
func (p *PCPU) dispatch() {
	if p.running != nil {
		return
	}
	var next *VCPU
	for _, v := range p.vcpus {
		if !v.runnable {
			continue
		}
		if next == nil || p.betterThan(v, next) {
			next = v
		}
	}
	if next == nil {
		return
	}
	p.maybeResetCredits()
	p.running = next
	p.runStart = p.eng.Now()
	p.ContextSwitches++
	next.boosted = false
	if next.hasWake {
		next.hasWake = false
		next.TotalWakeDelayNs += p.eng.Now() - next.wakeAt
		next.Wakes++
	}
	p.runVCPU(next)
}

// runVCPU executes the vCPU's pending work, or lets a CPU-bound vCPU spin
// until preempted or its credit window lapses.
func (p *PCPU) runVCPU(v *VCPU) {
	if len(v.queue) > 0 {
		item := v.queue[0]
		v.queue = v.queue[1:]
		p.eng.Schedule(item.costNs, func() {
			if p.running != v {
				// Shouldn't happen (I/O work is shorter than the rate
				// limit) but stay safe: requeue the completion.
				item.fn()
				return
			}
			item.fn()
			if len(v.queue) > 0 {
				p.runVCPU(v)
				return
			}
			// Block: I/O vCPU goes idle until the next wake.
			p.stopRunning(false)
			v.runnable = false
			p.dispatch()
		})
		return
	}
	if v.cpuBound {
		// Burn a credit slice, then re-evaluate. The slice granularity
		// bounds how stale credits get between resets.
		slice := p.cfg.CreditInitNs / 10
		if slice <= 0 {
			slice = int64(sim.Millisecond)
		}
		p.eng.Schedule(slice, func() {
			if p.running != v {
				return
			}
			p.stopRunning(true)
			p.dispatch()
		})
		return
	}
	// Nothing to do: block immediately.
	p.stopRunning(false)
	v.runnable = false
	p.dispatch()
}

// maybeResetCredits refills all credits when every runnable vCPU is
// exhausted, approximating Xen's periodic credit replenishment.
func (p *PCPU) maybeResetCredits() {
	anyPositive := false
	for _, v := range p.vcpus {
		if v.runnable && v.credit > 0 {
			anyPositive = true
			break
		}
	}
	if anyPositive {
		return
	}
	for _, v := range p.vcpus {
		v.credit = p.cfg.CreditInitNs * int64(v.Weight) / 256
	}
}
