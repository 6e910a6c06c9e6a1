package kernel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Fire is the traced path: it must not allocate, whether or not anything
// is attached at the site.
func TestProbeFireDoesNotAllocate(t *testing.T) {
	r := NewProbeRegistry()
	r.Attach(SiteUDPRecvmsg, func(*ProbeCtx) int64 { return 1 })
	for _, tc := range []struct {
		name string
		ctx  *ProbeCtx
		cost int64
	}{
		{"attached", &ProbeCtx{Site: SiteUDPRecvmsg}, 1},
		{"unattached", &ProbeCtx{Site: SiteTCPRecvmsg}, 0},
	} {
		var cost int64
		allocs := testing.AllocsPerRun(1000, func() { cost = r.Fire(tc.ctx) })
		if allocs != 0 || cost != tc.cost {
			t.Errorf("%s: Fire = cost %d at %v allocs/op, want cost %d at 0", tc.name, cost, allocs, tc.cost)
		}
	}
}

// A handler may detach itself, or a sibling, from inside a firing: the
// firing in progress still runs every handler it started with exactly
// once, and the next one sees the change.
func TestProbeDetachDuringFire(t *testing.T) {
	r := NewProbeRegistry()
	var order []string
	note := func(name string) ProbeHandler {
		return func(*ProbeCtx) int64 {
			order = append(order, name)
			return 1
		}
	}
	r.Attach(SiteUDPRecvmsg, note("first"))
	var detachSelf func()
	detachSelf = r.Attach(SiteUDPRecvmsg, func(*ProbeCtx) int64 {
		order = append(order, "self")
		detachSelf()
		return 1
	})
	r.Attach(SiteUDPRecvmsg, note("last"))

	if cost := r.Fire(&ProbeCtx{Site: SiteUDPRecvmsg}); cost != 3 || fmt.Sprint(order) != "[first self last]" {
		t.Fatalf("firing with self-detach: cost %d, ran %v; want 3, [first self last]", cost, order)
	}
	order = order[:0]
	if cost := r.Fire(&ProbeCtx{Site: SiteUDPRecvmsg}); cost != 2 || fmt.Sprint(order) != "[first last]" {
		t.Fatalf("firing after self-detach: cost %d, ran %v; want 2, [first last]", cost, order)
	}
	if got := r.Attached(SiteUDPRecvmsg); got != 2 {
		t.Fatalf("Attached = %d, want 2", got)
	}
}

// TestProbeRegistryConcurrentAttachFire attaches and detaches at several
// sites while other goroutines fire them, and checks every firing against
// the attachments' lifecycles. Run it under -race.
//
// The registry publishes a handler somewhere inside Attach and withdraws
// it somewhere inside detach, so what can be held against one firing is:
// it runs no handler whose Attach had not been called; it runs every
// handler whose Attach had returned before the firing began and whose
// detach had not been called when it ended; it starts no handler whose
// detach had returned before the firing began; and handlers run in attach
// order.
func TestProbeRegistryConcurrentAttachFire(t *testing.T) {
	const (
		sites  = 3
		firers = 4
		cycles = 100 // attachments per site over the test
		live   = 3   // attachments a site keeps before detaching its oldest
	)
	type lifecycle struct {
		attachCalled, attachReturned, detachCalled, detachReturned atomic.Bool
	}
	var (
		r     = NewProbeRegistry()
		names [sites]string
		lives [sites][cycles]lifecycle
		// ran[f] lists the attachments started by firer f's current
		// firing; handlers run on the firing goroutine and find it by
		// ProbeCtx.CPU.
		ran [firers][]int
		// withHandlers[f][s] counts firer f's firings at site s that ran
		// at least one handler.
		withHandlers [firers][sites]uint64
		// fired counts firings at any site; attachers pace themselves on
		// it, so every table they publish is fired against.
		fired     atomic.Uint64
		attaching sync.WaitGroup
		firing    sync.WaitGroup
		done      = make(chan struct{})
	)
	for s := range names {
		names[s] = fmt.Sprintf("site%d", s)
	}

	for s := 0; s < sites; s++ {
		s := s
		attaching.Add(1)
		go func() {
			defer attaching.Done()
			type attachment struct {
				k      int
				detach func()
			}
			var queue []attachment
			detachOldest := func() {
				a := queue[0]
				queue = queue[1:]
				lives[s][a.k].detachCalled.Store(true)
				a.detach()
				lives[s][a.k].detachReturned.Store(true)
			}
			for k := 0; k < cycles; k++ {
				k := k
				lives[s][k].attachCalled.Store(true)
				detach := r.Attach(names[s], func(ctx *ProbeCtx) int64 {
					if !lives[s][k].attachCalled.Load() {
						t.Errorf("site %d: handler %d ran before its Attach was called", s, k)
					}
					ran[ctx.CPU] = append(ran[ctx.CPU], k)
					return 1
				})
				lives[s][k].attachReturned.Store(true)
				queue = append(queue, attachment{k, detach})
				if len(queue) > live {
					detachOldest()
				}
				for seen := fired.Load(); fired.Load() < seen+firers && !t.Failed(); {
					runtime.Gosched()
				}
			}
			for len(queue) > 0 {
				detachOldest()
			}
		}()
	}

	for f := 0; f < firers; f++ {
		f := f
		firing.Add(1)
		go func() {
			defer firing.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			var attachedBefore, detachedBefore [cycles]bool
			for {
				select {
				case <-done:
					return
				default:
				}
				s := rng.Intn(sites)
				for k := range lives[s] {
					attachedBefore[k] = lives[s][k].attachReturned.Load()
					detachedBefore[k] = lives[s][k].detachReturned.Load()
				}
				ran[f] = ran[f][:0]
				cost := r.Fire(&ProbeCtx{Site: names[s], CPU: f})
				fired.Add(1)

				started := ran[f]
				if cost != int64(len(started)) {
					t.Errorf("site %d: Fire cost %d, but %d handlers ran", s, cost, len(started))
					return
				}
				var startedSet [cycles]bool
				for i, k := range started {
					if i > 0 && started[i-1] >= k {
						t.Errorf("site %d: handlers ran as %v, not in attach order", s, started)
						return
					}
					if detachedBefore[k] {
						t.Errorf("site %d: handler %d started by a firing that began after its detach returned", s, k)
						return
					}
					startedSet[k] = true
				}
				for k := range lives[s] {
					if attachedBefore[k] && !startedSet[k] && !lives[s][k].detachCalled.Load() {
						t.Errorf("site %d: handler %d attached before the firing and not detached after it, yet not run (ran %v)", s, k, started)
						return
					}
				}
				if len(started) > 0 {
					withHandlers[f][s]++
				}
			}
		}()
	}

	attaching.Wait()
	close(done)
	firing.Wait()

	var total uint64
	for s := 0; s < sites; s++ {
		for f := 0; f < firers; f++ {
			total += withHandlers[f][s]
		}
		if got := r.Attached(names[s]); got != 0 {
			t.Errorf("site %d: Attached = %d after every detach", s, got)
		}
	}
	if total == 0 {
		t.Fatal("no firing overlapped an attachment: the test exercised nothing")
	}
}
