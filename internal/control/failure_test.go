package control

import (
	"encoding/json"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

// TestHeartbeatDetectsCrashedAgent models the paper's "the raw data
// collector ... also acts as a heartbeat monitor to guarantee that the
// agents work properly": two agents flush periodically; one stops (crash);
// the collector's database flags it as dead.
func TestHeartbeatDetectsCrashedAgent(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(name string) *core.Machine {
		node := kernel.NewNode(eng, kernel.NodeConfig{Name: name, NumCPU: 1})
		machine, err := core.NewMachine(node, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return machine
	}
	db := NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
	healthy := NewAgent("healthy", mk("healthy"), db)
	crashy := NewAgent("crashy", mk("crashy"), db)
	healthy.StartFlushing(10 * int64(sim.Millisecond))
	crashy.StartFlushing(10 * int64(sim.Millisecond))

	eng.Run(100 * int64(sim.Millisecond))
	if dead := db.DB().DeadAgents(eng.Now(), 30*int64(sim.Millisecond)); len(dead) != 0 {
		t.Fatalf("healthy phase reported dead agents: %v", dead)
	}

	// Crash one agent: its flush loop stops.
	crashy.StopFlushing()
	eng.Run(eng.Now() + 200*int64(sim.Millisecond))

	dead := db.DB().DeadAgents(eng.Now(), 30*int64(sim.Millisecond))
	if len(dead) != 1 || dead[0] != "crashy" {
		t.Fatalf("dead agents = %v, want [crashy]", dead)
	}
}

// TestControlPackageJSONStability pins the wire format the CLI documents:
// a package written as JSON must round-trip through the same encoding the
// TCP transport uses.
func TestControlPackageJSONStability(t *testing.T) {
	const wire = `{
		"install": [{
			"name": "udp-rx",
			"tp_id": 7,
			"attach": {"Kind": 1, "Site": "udp_recvmsg"},
			"filter": {"proto": 17, "dst_port": 9000, "src_ip": 167772161},
			"actions": [1, 2]
		}],
		"uninstall": ["old-script"],
		"flush_interval_ns": 100000000
	}`
	var pkg ControlPackage
	if err := json.Unmarshal([]byte(wire), &pkg); err != nil {
		t.Fatal(err)
	}
	if len(pkg.Install) != 1 || pkg.Install[0].Name != "udp-rx" {
		t.Fatalf("install = %+v", pkg.Install)
	}
	spec := pkg.Install[0]
	if spec.TPID != 7 || spec.Attach.Kind != core.AttachKProbe || spec.Attach.Site != "udp_recvmsg" {
		t.Fatalf("attach = %+v", spec.Attach)
	}
	if spec.Filter.Proto != 17 || spec.Filter.DstPort != 9000 || uint32(spec.Filter.SrcIP) != 167772161 {
		t.Fatalf("filter = %+v", spec.Filter)
	}
	if len(spec.Actions) != 2 || spec.Actions[0] != script.ActionRecord || spec.Actions[1] != script.ActionCount {
		t.Fatalf("actions = %v", spec.Actions)
	}
	if pkg.FlushIntervalNs != 100000000 || pkg.Uninstall[0] != "old-script" {
		t.Fatalf("pkg = %+v", pkg)
	}
	// Round-trip.
	out, err := json.Marshal(pkg)
	if err != nil {
		t.Fatal(err)
	}
	var back ControlPackage
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Install[0].Filter != spec.Filter {
		t.Fatalf("round-trip filter = %+v", back.Install[0].Filter)
	}
}
