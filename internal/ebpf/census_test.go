package ebpf_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/script"
	"vnettracer/internal/vnet"
)

// censusKinds are the only IR kinds trace scripts reach after
// optimization. The compile tier keeps a specialised form only because a
// script needs it; a kind outside this set means a script fell off the
// fast path (or a form was added that no script uses). Every aggregation
// action lands in an incbatch: no shape keeps a bare mapinc, hist or
// ktime, nor the register moves and ctx loads that fed them.
var censusKinds = map[string]bool{
	"movimm": true, "perfemit": true, "copybatch": true, "incbatch": true,
}

// maxShapeOps bounds the optimized ops of any script shape: the census's
// largest, record plus every aggregation action, is the record build,
// its emit, one batch of the array, per-CPU and histogram actions, the
// flow key build, the flow row's batch and the two exit values.
const maxShapeOps = 7

// helpersPerAction is the helper calls each aggregation action makes:
// the counters two map_inc_elem, the CPU histogram one, the latency
// histogram ktime_get_ns and hist_observe, the flow row two
// map_inc_elem.
var helpersPerAction = map[script.Action]int{
	script.ActionCount: 2, script.ActionCPUHist: 1, script.ActionHist: 2, script.ActionFlowCount: 2,
}

// scriptShapes is every script.Compile shape: each non-empty subset of
// the five actions, in declaration order, under each filter form the
// compiler emits (none, the full five-tuple, traced-only).
func scriptShapes() []script.Spec {
	actions := []script.Action{script.ActionRecord, script.ActionCount,
		script.ActionCPUHist, script.ActionHist, script.ActionFlowCount}
	filters := []script.Filter{
		{},
		{Proto: vnet.ProtoUDP, SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 9000},
		{Proto: vnet.ProtoUDP, TracedOnly: true},
	}
	var specs []script.Spec
	for fi, f := range filters {
		for mask := 1; mask < 1<<len(actions); mask++ {
			var acts []script.Action
			for i, a := range actions {
				if mask&(1<<i) != 0 {
					acts = append(acts, a)
				}
			}
			specs = append(specs, script.Spec{
				Name:    fmt.Sprintf("filter%d%v", fi, acts),
				TPID:    5,
				Attach:  core.AttachPoint{Kind: core.AttachKProbe},
				Filter:  f,
				Actions: acts,
			})
		}
	}
	return specs
}

// TestCompiledScriptsStayOnFastPath is the fast-path census: every script
// shape must optimize to specialised forms only — no generic helper call,
// no kind outside censusKinds — within maxShapeOps ops; a record script's
// 48-byte build must be exactly one copy batch; the increment batches
// charge every helper call their actions make; and a flow row is one
// two-lane increment.
func TestCompiledScriptsStayOnFastPath(t *testing.T) {
	specs := scriptShapes()
	if len(specs) != 93 {
		t.Fatalf("%d script shapes, want 31 action subsets x 3 filters = 93", len(specs))
	}
	const recLo = ebpf.StackSize - core.RecordSize
	for _, spec := range specs {
		c, err := script.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ops, err := ebpf.OptimizedIR(c.Prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(ops) > maxShapeOps {
			t.Errorf("%s: %d optimized ops, want at most %d: %+v", spec.Name, len(ops), maxShapeOps, ops)
		}
		var recBuilds []ebpf.IROp
		var incs []string
		helpers := 0
		for _, op := range ops {
			if !censusKinds[op.Kind] {
				t.Errorf("%s: op kind %q is off the script fast path", spec.Name, op.Kind)
			}
			if op.Kind == "copybatch" && op.Hi > recLo {
				recBuilds = append(recBuilds, op)
			}
			incs = append(incs, op.Incs...)
			helpers += op.Helpers
		}
		wantHelpers := 0
		for _, a := range spec.Actions {
			wantHelpers += helpersPerAction[a]
		}
		if helpers != wantHelpers {
			t.Errorf("%s: increment batches charge %d helper calls, want %d", spec.Name, helpers, wantHelpers)
		}
		flowRows, wantRows := 0, 0
		for _, d := range incs {
			if d == "hash2" {
				flowRows++
			}
		}
		if slices.Contains(spec.Actions, script.ActionFlowCount) {
			wantRows = 1
		}
		if flowRows != wantRows {
			t.Errorf("%s: %d two-lane flow rows in %v, want %d", spec.Name, flowRows, incs, wantRows)
		}

		record := slices.Contains(spec.Actions, script.ActionRecord)
		switch {
		case !record && len(recBuilds) != 0:
			t.Errorf("%s: copy batches into the record area without a record action: %+v", spec.Name, recBuilds)
		case record && (len(recBuilds) != 1 || recBuilds[0].Lo != recLo ||
			recBuilds[0].Hi != ebpf.StackSize || recBuilds[0].Bytes != core.RecordSize):
			t.Errorf("%s: record build is not one %d-byte copy batch at stack[%d:%d]: %+v",
				spec.Name, core.RecordSize, recLo, ebpf.StackSize, recBuilds)
		}
	}
}

// TestRecordShapesIRUnchanged pins the optimized IR of the record-only
// shapes: increment fusion must leave a script without aggregation
// actions exactly as it compiled before — the record build in one copy
// batch, its emit, and the exit values.
func TestRecordShapesIRUnchanged(t *testing.T) {
	build := ebpf.IROp{Kind: "copybatch", Lo: ebpf.StackSize - core.RecordSize, Hi: ebpf.StackSize, Bytes: core.RecordSize}
	emit, exit := ebpf.IROp{Kind: "perfemit"}, ebpf.IROp{Kind: "movimm"}
	want := map[string][]ebpf.IROp{
		"filter0[record]": {build, emit, exit}, // no filter: no "out" block
		"filter1[record]": {build, emit, exit, exit},
		"filter2[record]": {build, emit, exit, exit},
	}
	for _, spec := range scriptShapes() {
		w, ok := want[spec.Name]
		if !ok {
			continue
		}
		delete(want, spec.Name)
		c, err := script.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ops, err := ebpf.OptimizedIR(c.Prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(ops, w) {
			t.Errorf("%s: optimized IR\n got %+v\nwant %+v", spec.Name, ops, w)
		}
	}
	if len(want) != 0 {
		t.Errorf("record-only shapes missing from the census: %v", want)
	}
}
