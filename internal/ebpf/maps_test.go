package ebpf

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// The array maps hand programs a byte view of their []uint64 slab, and
// lanes are little-endian u64s: the view and the atomic lane adds agree
// only on a little-endian host. This pins that assumption both ways.
func TestSlabViewIsLittleEndian(t *testing.T) {
	m, err := NewArrayMap(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{1, 0, 0, 0}
	if !m.IncSlot(1, 8, 0x0102030405060708) {
		t.Fatal("IncSlot on an aligned lane failed")
	}
	v, _ := m.Lookup(key)
	want := []byte{0, 0, 0, 0, 0, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1}
	if string(v) != string(want) {
		t.Fatalf("view after IncSlot = % x, want % x", v, want)
	}
	// A write through the view is what the lane add and the drain see.
	binary.LittleEndian.PutUint64(v, 0x1122334455667788)
	if !m.IncSlot(1, 0, 1) {
		t.Fatal("IncSlot failed")
	}
	if got := m.DrainU64(nil); got[1] != 0x1122334455667789 {
		t.Fatalf("drained %#x, want %#x", got[1], uint64(0x1122334455667789))
	}
	if string(v) != string(make([]byte, 16)) {
		t.Fatalf("drain left % x in the slot", v)
	}
}

// Lanes are 8-aligned words inside the value: every Inc form refuses a
// lane the verifier would reject, and leaves the map untouched.
func TestIncRejectsMisalignedLane(t *testing.T) {
	h, _ := NewHashMap(4, 16, 4)
	a, _ := NewArrayMap(16, 1)
	p, _ := NewPerCPUArray(16, 1, 2)
	for _, off := range []int64{-8, 4, 12, 16} {
		if h.Inc([]byte{1, 0, 0, 0}, off, 1) || a.IncSlot(0, off, 1) || p.IncSlotCPU(0, 1, off, 1) {
			t.Fatalf("lane at offset %d accepted", off)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("rejected Inc created %d entries", h.Len())
	}
}

// A drained hash entry is parked: absent to every reader, revived in
// place by its own key's next write, and evicted when a new key needs
// room — which then gets a fresh buffer, never the evicted one.
func TestHashMapDrainParksEntries(t *testing.T) {
	m, err := NewHashMap(4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := []byte{1, 0, 0, 0}, []byte{2, 0, 0, 0}, []byte{3, 0, 0, 0}
	m.Inc(k1, 0, 5)
	m.Inc(k2, 0, 7)
	stale, _ := m.Lookup(k1) // a program's map_lookup_elem pointer
	got := map[byte]uint64{}
	m.Drain(func(k, v []byte) { got[k[0]] += binary.LittleEndian.Uint64(v) })
	if got[1] != 5 || got[2] != 7 || len(got) != 2 {
		t.Fatalf("drained %v", got)
	}

	if m.Len() != 0 {
		t.Fatalf("Len = %d after drain", m.Len())
	}
	if _, ok := m.Lookup(k1); ok {
		t.Fatal("parked key visible to Lookup")
	}
	m.ForEach(func(k, v []byte) { t.Fatalf("parked key %x visible to ForEach", k) })
	if err := m.Delete(k1); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("Delete of a parked key: %v", err)
	}
	if err := m.Update(k2, make([]byte, 8), UpdateExist); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("UpdateExist on a parked key: %v", err)
	}
	if err := m.Update(k2, []byte{9, 0, 0, 0, 0, 0, 0, 0}, UpdateNoExist); err != nil {
		t.Fatalf("UpdateNoExist on a parked key: %v", err)
	}
	if v, ok := m.Lookup(k2); !ok || v[0] != 9 || m.Len() != 1 {
		t.Fatalf("revived by Update: %v %v, Len %d", v, ok, m.Len())
	}

	// Revival by Inc starts from zero and allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		m.Inc(k1, 0, 1)
		m.Drain(func(k, v []byte) {})
	}); allocs != 0 {
		t.Fatalf("Inc+Drain of a seen key: %v allocs/op", allocs)
	}
	m.Inc(k1, 0, 1)
	if v, _ := m.Lookup(k1); binary.LittleEndian.Uint64(v) != 1 {
		t.Fatalf("revived value = %d, want 1", binary.LittleEndian.Uint64(v))
	}

	// Both keys parked, capacity 2: a third key evicts them and gets a
	// fresh buffer, so the stale pointer to k1's storage cannot reach it.
	m.Drain(func(k, v []byte) {})
	if !m.Inc(k3, 0, 1) {
		t.Fatal("new key refused although every entry was parked")
	}
	stale[0] = 0xff
	if v, _ := m.Lookup(k3); binary.LittleEndian.Uint64(v) != 1 {
		t.Fatalf("k3 = %#x: a stale pointer wrote into a new key's buffer", binary.LittleEndian.Uint64(v))
	}
	if _, ok := m.Lookup(k1); ok || m.Len() != 1 {
		t.Fatalf("after eviction: k1 visible %v, Len %d", ok, m.Len())
	}
	m.Inc(k1, 0, 1)
	if m.Inc(k2, 0, 1) {
		t.Fatal("third live key accepted at capacity 2")
	}
}

// Four probe goroutines, one per CPU, increment all three map types
// while a fifth drains in a loop: every increment lands in exactly one
// drain, per key, lane and CPU. A flow row's two lanes, added by one
// Inc2 (the compiled flow row), are drained together: no drain sees a
// row's packets without its bytes.
func TestMapsExactlyOnceUnderConcurrency(t *testing.T) {
	const cpus, keys, rounds, rowBytes = 4, 8, 2000, 100
	h, _ := NewHashMap(4, 16, keys)
	rows, _ := NewHashMap(4, 16, keys)
	a, _ := NewArrayMap(8, keys)
	p, _ := NewPerCPUArray(8, keys, cpus)

	var hashGot, rowGot [keys][2]uint64
	var arrGot [keys]uint64
	var cpuGot [keys][cpus]uint64
	torn := 0
	drain := func() {
		h.Drain(func(k, v []byte) {
			hashGot[k[0]][0] += binary.LittleEndian.Uint64(v)
			hashGot[k[0]][1] += binary.LittleEndian.Uint64(v[8:])
		})
		rows.Drain(func(k, v []byte) {
			pkts, bytes := binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
			if bytes != pkts*rowBytes {
				torn++
			}
			rowGot[k[0]][0] += pkts
			rowGot[k[0]][1] += bytes
		})
		for k, v := range a.DrainU64(nil) {
			arrGot[k] += v
		}
		for k := 0; k < keys; k++ {
			for c, v := range p.DrainU64CPUs(k, nil) {
				cpuGot[k][c] += v
			}
		}
	}

	var failed atomic.Bool
	var probes sync.WaitGroup
	for cpu := 0; cpu < cpus; cpu++ {
		probes.Add(1)
		go func(cpu int) {
			defer probes.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := []byte{byte(k), 0, 0, 0}
					ok := h.Inc(key, 0, 1) && h.Inc(key, 8, uint64(cpu+1)) &&
						rows.Inc2(key, 0, 1, 8, rowBytes) &&
						a.IncSlot(k, 0, uint64(cpu+1)) && p.IncSlotCPU(k, cpu, 0, uint64(k+1))
					if !ok {
						failed.Store(true)
					}
				}
			}
		}(cpu)
	}
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				drain()
			}
		}
	}()
	probes.Wait()
	close(stop)
	<-drained
	drain()

	if failed.Load() {
		t.Fatal("an increment was refused")
	}
	if torn != 0 {
		t.Errorf("%d drained flow rows had one lane without the other", torn)
	}
	const cpuSum = cpus * (cpus + 1) / 2 // sum of cpu+1 over the CPUs
	for k := 0; k < keys; k++ {
		if hashGot[k][0] != cpus*rounds || hashGot[k][1] != cpuSum*rounds {
			t.Errorf("hash key %d drained lanes %v, want [%d %d]", k, hashGot[k], cpus*rounds, cpuSum*rounds)
		}
		if rowGot[k][0] != cpus*rounds || rowGot[k][1] != cpus*rounds*rowBytes {
			t.Errorf("flow row %d drained lanes %v, want [%d %d]", k, rowGot[k], cpus*rounds, cpus*rounds*rowBytes)
		}
		if arrGot[k] != cpuSum*rounds {
			t.Errorf("array slot %d drained %d, want %d", k, arrGot[k], cpuSum*rounds)
		}
		for c := 0; c < cpus; c++ {
			if want := uint64(k+1) * rounds; cpuGot[k][c] != want {
				t.Errorf("per-CPU slot %d cpu %d drained %d, want %d", k, c, cpuGot[k][c], want)
			}
		}
	}
}

// A full flow map refuses a new key without sweeping its index when no
// entry is parked, counts every refused Inc and Inc2, and keeps serving
// its live keys; once entries are parked, a new key evicts them instead.
func TestHashMapFullRefusesAndCounts(t *testing.T) {
	m, err := NewHashMap(4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i byte) []byte { return []byte{i, 0, 0, 0} }
	for i := byte(0); i < 4; i++ {
		if !m.Inc2(key(i), 0, 1, 8, 10) {
			t.Fatalf("key %d refused below capacity", i)
		}
	}
	if m.Inc(key(4), 0, 1) || m.Inc2(key(5), 0, 1, 8, 10) {
		t.Fatal("new key accepted with every entry live")
	}
	if got := m.Refused(); got != 2 {
		t.Fatalf("Refused = %d after two refused increments, want 2", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Inc(key(6), 0, 1) }); allocs != 0 {
		t.Fatalf("refused Inc: %v allocs/op", allocs)
	}
	if !m.Inc2(key(0), 0, 1, 8, 10) || m.Len() != 4 {
		t.Fatalf("hit on a full map refused, or Len %d", m.Len())
	}
	if v, _ := m.Lookup(key(0)); binary.LittleEndian.Uint64(v) != 2 || binary.LittleEndian.Uint64(v[8:]) != 20 {
		t.Fatalf("key 0 = %x after two rows", v)
	}
	// A bad lane is not a full map: refused, not counted.
	before := m.Refused()
	if m.Inc2(key(0), 0, 1, 3, 1) || m.Refused() != before {
		t.Fatal("misaligned second lane accepted or counted as a full-map refusal")
	}

	// Park everything, revive three keys: the fourth slot is parked, so a
	// new key evicts it and fits; the next new key is refused again.
	m.Drain(func(k, v []byte) {})
	for i := byte(0); i < 3; i++ {
		m.Inc(key(i), 0, 1)
	}
	refused := m.Refused()
	if !m.Inc(key(7), 0, 1) {
		t.Fatal("new key refused although an entry was parked")
	}
	if m.Inc(key(8), 0, 1) || m.Refused() != refused+1 || m.Len() != 4 {
		t.Fatalf("fifth key: Refused %d (was %d), Len %d", m.Refused(), refused, m.Len())
	}
}

// gatedEnv parks a run inside ktime_get_ns until the test opens the gate,
// so a second run can execute in between.
type gatedEnv struct {
	testEnv
	entered chan struct{}
	gate    chan struct{}
}

func (e *gatedEnv) KtimeNs() uint64 {
	close(e.entered)
	<-e.gate
	return 0
}

type execFn func(ctx []byte, env Env) (uint64, ExecStats, error)

// A program addresses the per-CPU slot of the CPU it runs on, whatever
// other runs do meanwhile: run A on CPU 0 blocks between its start and its
// map_lookup_elem while run B on CPU 1 completes, and each CPU's slot
// still holds only its own run's write. Each engine hands out the
// executors of run A and run B; "runners" gives each CPU its own Runner,
// as each attachment owns one.
func TestPerCPULookupFollowsExecutingCPU(t *testing.T) {
	engines := map[string]func(p *Program) (execA, execB execFn){
		"compiled":    func(p *Program) (execFn, execFn) { return p.Run, p.Run },
		"interpreted": func(p *Program) (execFn, execFn) { return p.RunInterpreted, p.RunInterpreted },
		"runners":     func(p *Program) (execFn, execFn) { return p.NewRunner().Run, p.NewRunner().Run },
	}
	for name, engine := range engines {
		t.Run(name, func(t *testing.T) {
			m, err := NewPerCPUArray(8, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			p := loadAsm(t, `
				mov r6, r1
				call ktime_get_ns
				stw [r10-4], 0
				ld_map_fd r1, percpu
				mov r2, r10
				add r2, -4
				call map_lookup_elem
				jeq r0, 0, out
				ldxdw r3, [r6+0]
				stxdw [r0+0], r3
			out:
				mov r0, 0
				exit
			`, map[string]Map{"percpu": m}, 8)
			execA, execB := engine(p)
			envA := &gatedEnv{testEnv: testEnv{cpu: 0}, entered: make(chan struct{}), gate: make(chan struct{})}
			done := make(chan error)
			go func() {
				_, _, err := execA([]byte{0xa, 0, 0, 0, 0, 0, 0, 0}, envA)
				done <- err
			}()
			<-envA.entered
			if _, _, err := execB([]byte{0xb, 0, 0, 0, 0, 0, 0, 0}, &testEnv{time: 1, cpu: 1}); err != nil {
				t.Fatal(err)
			}
			close(envA.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			key := []byte{0, 0, 0, 0}
			for cpu, want := range []uint64{0xa, 0xb} {
				v, _ := m.LookupCPU(key, cpu)
				if got := binary.LittleEndian.Uint64(v); got != want {
					t.Errorf("cpu%d slot = %#x, want %#x", cpu, got, want)
				}
			}
		})
	}
}

// reentryEnv re-enters its runner once from inside ktime_get_ns, as a
// second firing of an attachment would if firings overlapped.
type reentryEnv struct {
	testEnv
	r       *Runner
	entered bool
}

func (e *reentryEnv) KtimeNs() uint64 {
	if !e.entered {
		e.entered = true
		e.r.Run(make([]byte, 8), e)
	}
	return 0
}

// A runner's runs must never overlap; -race builds check it and panic on
// a run entered while another is in progress.
func TestRunnerPanicsOnOverlap(t *testing.T) {
	if !raceEnabled {
		t.Skip("the overlap check is compiled only into -race builds")
	}
	p := loadAsm(t, `
		call ktime_get_ns
		mov r0, 0
		exit
	`, nil, 8)
	env := &reentryEnv{r: p.NewRunner()}
	defer func() {
		if recover() == nil {
			t.Fatal("re-entered runner did not panic")
		}
	}()
	env.r.Run(make([]byte, 8), env)
}

// Userspace Lookup and Update address CPU 0; ForEach passes every CPU's
// slot of an entry, in CPU order; out-of-range CPUs wrap.
func TestPerCPUArrayUserspaceView(t *testing.T) {
	m, err := NewPerCPUArray(8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{1, 0, 0, 0}
	if err := m.Update(key, []byte{7, 0, 0, 0, 0, 0, 0, 0}, UpdateAny); err != nil {
		t.Fatal(err)
	}
	m.IncSlotCPU(1, 5, 0, 9) // CPU 5 of 3 wraps to CPU 2
	if v, _ := m.Lookup(key); v[0] != 7 {
		t.Fatalf("Lookup = % x, want CPU 0's slot", v)
	}
	var dump [][]byte
	m.ForEach(func(k, v []byte) { dump = append(dump, append(append([]byte(nil), k...), v...)) })
	want := [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0},
	}
	if len(dump) != len(want) || string(dump[0]) != string(want[0]) || string(dump[1]) != string(want[1]) {
		t.Fatalf("ForEach = % x, want % x", dump, want)
	}
}
