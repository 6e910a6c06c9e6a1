package script

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// parityEnv is a deterministic Env capturing the perf stream so compiled
// script programs can be compared across the two execution engines.
type parityEnv struct {
	time uint64
	perf []string
}

func (e *parityEnv) KtimeNs() uint64        { e.time += 500; return e.time }
func (e *parityEnv) SMPProcessorID() uint32 { return 1 }
func (e *parityEnv) PrandomU32() uint32     { return 9 }
func (e *parityEnv) PerfEventOutput(data []byte) bool {
	e.perf = append(e.perf, string(data))
	return true
}
func (e *parityEnv) TracePrintk(msg string) {}

// TestCompiledScriptsTierParity runs every script shape — each non-empty
// subset of the five actions, in declaration order, under each filter
// form the compiler emits (none, the full five-tuple, traced-only) — on
// the interpreter and on the compiled code Run executes, and requires
// identical results: R0, execution statistics, perf output, and final
// map state. So every descriptor shape increment fusion builds is
// checked against the interpreter. Each engine gets a freshly compiled
// program (fresh maps) and a fresh env, so nothing leaks between them.
func TestCompiledScriptsTierParity(t *testing.T) {
	actions := []Action{ActionRecord, ActionCount, ActionCPUHist, ActionHist, ActionFlowCount}
	filters := []struct {
		name string
		f    Filter
	}{
		{"none", Filter{}},
		{"fivetuple", Filter{Proto: vnet.ProtoUDP, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 9000}},
		{"traced", Filter{Proto: vnet.ProtoUDP, TracedOnly: true}},
	}
	ctxs := map[string][]byte{
		"match": core.BuildCtx(nil, &kernel.ProbeCtx{
			Pkt: &vnet.Packet{
				IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
				UDP:     &vnet.UDPHeader{SrcPort: 1, DstPort: 9000},
				TraceID: 7,
			},
			TimeNs: 1,
		}),
		"nomatch": core.BuildCtx(nil, &kernel.ProbeCtx{
			Pkt: &vnet.Packet{
				IP:      vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 1, Dst: 2},
				TCP:     &vnet.TCPHeader{SrcPort: 1, DstPort: 80},
				TraceID: 8,
			},
			TimeNs: 1,
		}),
	}

	for mask := 1; mask < 1<<len(actions); mask++ {
		var combo []Action
		for i, a := range actions {
			if mask&(1<<i) != 0 {
				combo = append(combo, a)
			}
		}
		for ctxName, ctx := range ctxs {
			t.Run(fmt.Sprintf("%v/%s", combo, ctxName), func(t *testing.T) {
				for _, filter := range filters {
					spec := Spec{Name: "parity", TPID: 4, Filter: filter.f, Actions: combo}
					t.Run(filter.name, func(t *testing.T) { checkTierParity(t, spec, ctx) })
				}
			})
		}
	}
}

// checkTierParity runs spec over ctx twice on both engines (the second
// firing finds the map entries the first created) and requires identical
// R0s, execution statistics, perf stream and map state.
func checkTierParity(t *testing.T, spec Spec, ctx []byte) {
	type result struct {
		r0    []uint64
		stats []ebpf.ExecStats
		perf  []string
		maps  []string
	}
	runTier := func(interpreted bool) result {
		insns, maps, err := CompileToInsns(spec)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		prog, err := ebpf.Load(ebpf.ProgramSpec{
			Name: "parity", Type: ebpf.ProgTypeKprobe,
			Insns: insns, Maps: maps, CtxSize: core.CtxSize,
		})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		env := &parityEnv{}
		var res result
		for range 2 {
			run := prog.Run
			if interpreted {
				run = prog.RunInterpreted
			}
			r0, stats, err := run(ctx, env)
			if err != nil {
				t.Fatalf("run (interpreted=%v): %v", interpreted, err)
			}
			res.r0, res.stats = append(res.r0, r0), append(res.stats, stats)
		}
		res.perf = env.perf
		for i, m := range maps {
			m.ForEach(func(k, v []byte) {
				res.maps = append(res.maps, fmt.Sprintf("map%d %x=%x", i, k, v))
			})
		}
		sort.Strings(res.maps)
		return res
	}
	ref, got := runTier(true), runTier(false)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("optimized diverges from interpreter:\noptimized: %+v\ninterp: %+v", got, ref)
	}
}
