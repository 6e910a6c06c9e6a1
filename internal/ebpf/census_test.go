package ebpf_test

import (
	"fmt"
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
// fast path (or a form was added that no script uses).
var censusKinds = map[string]bool{
	"movimm": true, "movreg": true, "alu": true, "loadctx": true,
	"storestackimm": true, "ktime": true, "perfemit": true,
	"mapinc": true, "hist": true, "copybatch": true,
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
// no kind outside censusKinds — and a record script's 48-byte build must
// be exactly one copy batch.
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
		var recBuilds []ebpf.IROp
		for _, op := range ops {
			if !censusKinds[op.Kind] {
				t.Errorf("%s: op kind %q is off the script fast path", spec.Name, op.Kind)
			}
			if op.Kind == "copybatch" && op.Hi > recLo {
				recBuilds = append(recBuilds, op)
			}
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
