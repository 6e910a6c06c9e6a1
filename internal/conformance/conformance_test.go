package conformance

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"vnettracer/internal/sim"
)

// report fails the test with every violated invariant plus the replay
// recipe: the scenario name, the seed, and the run digest.
func report(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Violations) == 0 {
		return
	}
	for _, v := range res.Violations {
		t.Errorf("invariant: %s", v)
	}
	t.Errorf("reproduce: scenario %q seed %d (digest %s)",
		res.Scenario.Name, res.Scenario.Seed, res.Digest)
}

// goldenPath pins the corpus digests: a refactor that claims "behaviour
// unchanged" proves it by leaving this file untouched.
const goldenPath = "testdata/digests.golden"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run's corpus digests")

// readGolden parses goldenPath: one "<scenario> <digest>" line per
// corpus scenario.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/conformance -run TestScenarioCorpus -update` to create it)", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, dig, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		golden[name] = dig
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestScenarioCorpus runs every corpus scenario twice: all invariants
// must hold, the second run must replay to the identical digest — any
// nondeterminism anywhere in the pipeline (map iteration, unseeded
// randomness, wall-clock reads) shows up here as a digest mismatch — and
// the digest must match the one pinned in goldenPath, so a change to
// what the pipeline does to a trace cannot land unnoticed.
func TestScenarioCorpus(t *testing.T) {
	// engagement lists, per scenario, the fault symptom that must be
	// visibly nonzero in the result — a scenario whose fault silently
	// stops firing is testing nothing.
	engagement := map[string]func(*Result) (string, uint64){
		"bursty-emit-ring-drops": func(r *Result) (string, uint64) {
			return "ring drops", sumAgents(r, func(a AgentReport) uint64 { return a.RingDrops })
		},
		"flaky-sink-window": func(r *Result) (string, uint64) { return "rejected deliveries", r.Rejected },
		"ack-loss":          func(r *Result) (string, uint64) { return "deduped batches", r.DupBatches },
		"spool-overflow": func(r *Result) (string, uint64) {
			return "evicted records", sumAgents(r, func(a AgentReport) uint64 { return a.Evicted })
		},
		"sink-down-forever": func(r *Result) (string, uint64) {
			return "records spooled at quiesce", sumAgents(r, func(a AgentReport) uint64 { return a.Spooled })
		},
		"kitchen-sink": func(r *Result) (string, uint64) { return "deduped batches", r.DupBatches },
		"agent-restart-reprovision": func(r *Result) (string, uint64) {
			if r.Dispatch.Reprovisions == 0 {
				return "dispatcher re-provisions", 0
			}
			return "unattended fires in the dead window", r.UnattendedFires
		},
		"in-probe-aggregation": func(r *Result) (string, uint64) {
			if sumAgents(r, func(a AgentReport) uint64 { return a.RingDrops }) == 0 {
				return "ring drops alongside exact aggregates", 0
			}
			if r.OutageSpooledFrames == 0 {
				return "frames held back by the outage", 0
			}
			return "deduped aggregate frames", r.AggFramesDup
		},
		"zombie-epoch-fencing": func(r *Result) (string, uint64) {
			if r.FencedBatches == 0 {
				return "fenced batches", 0
			}
			return "fenced records", r.FencedRecords
		},
		"collector-crash-rehome": func(r *Result) (string, uint64) {
			if r.Dispatch.Rehomes == 0 {
				return "re-homed agents", 0
			}
			if r.Rejected == 0 {
				return "rejected deliveries at the crashed collector", 0
			}
			if r.DupBatches == 0 {
				return "re-shipped batches deduped across the handoff", 0
			}
			return "aggregate frames deduped", r.AggFramesDup
		},
		"collector-kill-recover": func(r *Result) (string, uint64) {
			if r.RecoveredCollectors == 0 {
				return "recovered collectors", 0
			}
			if !r.Recovery.CheckpointLoaded {
				return "checkpoint loaded at recovery", 0
			}
			if r.Recovery.ReplayedRecords == 0 {
				return "WAL-replayed records", 0
			}
			if r.CrashSpooledBatches == 0 || r.CrashSpooledFrames == 0 {
				return "batches and frames spooled at the crash instant", 0
			}
			return "re-shipped batches deduped by the recovered collector", r.DupAfterRecovery
		},
		"recover-vs-rehome": func(r *Result) (string, uint64) {
			if r.RecoveredCollectors == 0 {
				return "recovered collectors", 0
			}
			if r.Dispatch.Rehomes == 0 {
				return "re-homed agents", 0
			}
			if !r.Recovery.CheckpointLoaded {
				return "checkpoint loaded at recovery", 0
			}
			if r.Recovery.ReplayedRecords == 0 {
				return "WAL-replayed records", 0
			}
			return "re-shipped batches deduped after the rehome", r.DupBatches
		},
		"rehome-then-successor-crash": func(r *Result) (string, uint64) {
			if r.RecoveredCollectors == 0 {
				return "recovered collectors", 0
			}
			if r.DupBatches == 0 {
				return "re-shipped batches deduped", 0
			}
			return "re-homed agents on the crashed successor", r.CrashRehomedTenants
		},
		"skewed-agent-load": func(r *Result) (string, uint64) {
			var min, max uint64
			for i, pc := range r.PerCollector {
				if i == 0 || pc.Records < min {
					min = pc.Records
				}
				if pc.Records > max {
					max = pc.Records
				}
			}
			if len(r.PerCollector) < 2 || min == 0 {
				return "ingest at every collector", 0
			}
			if max < 2*min {
				return "visible ingest skew (max >= 2*min)", 0
			}
			return "skewed per-collector ingest", max
		},
		"collector-overload-degrade": func(r *Result) (string, uint64) {
			if r.OverloadAcks == 0 {
				return "pressured acks", 0
			}
			if sumAgents(r, func(a AgentReport) uint64 { return a.Degradations }) == 0 {
				return "degradations", 0
			}
			if sumAgents(r, func(a AgentReport) uint64 { return a.SampleDrops }) == 0 {
				return "sampled-away ring writes", 0
			}
			return "recoveries", sumAgents(r, func(a AgentReport) uint64 { return a.Recoveries })
		},
	}
	var golden map[string]string
	if !*update {
		golden = readGolden(t)
	}
	// fresh collects this run's digests; under a -run filter only the
	// selected scenarios land here.
	fresh := make(map[string]string)
	for _, sc := range Corpus() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			first, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			report(t, first)
			fresh[sc.Name] = first.Digest
			if want := golden[sc.Name]; !*update && first.Digest != want {
				t.Errorf("digest %s, %s pins %q", first.Digest, goldenPath, want)
			}
			if probe, ok := engagement[sc.Name]; ok {
				if what, n := probe(first); n == 0 {
					t.Errorf("fault never engaged: %s is 0", what)
				}
			}
			second, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			report(t, second)
			if second.Digest != first.Digest {
				t.Errorf("same seed, different trace: run 1 digest %s, run 2 digest %s",
					first.Digest, second.Digest)
			}
		})
	}
	if *update {
		var out strings.Builder
		for _, sc := range Corpus() {
			dig, ran := fresh[sc.Name]
			if !ran {
				t.Fatalf("-update needs the whole corpus, but %q did not run", sc.Name)
			}
			fmt.Fprintf(&out, "%s %s\n", sc.Name, dig)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(golden) != len(Corpus()) {
		t.Errorf("%s pins %d scenarios, the corpus has %d", goldenPath, len(golden), len(Corpus()))
	}
}

func sumAgents(r *Result, field func(AgentReport) uint64) uint64 {
	var sum uint64
	for _, a := range r.Agents {
		sum += field(a)
	}
	return sum
}

// TestCorpusCoversFaultMatrix pins the corpus floor: at least 10
// scenarios, collectively exercising every fault axis the harness
// models.
func TestCorpusCoversFaultMatrix(t *testing.T) {
	corpus := Corpus()
	if len(corpus) < 10 {
		t.Fatalf("corpus has %d scenarios, want >= 10", len(corpus))
	}
	var bursts, skew, outage, ackLoss, restart, spool, wireLoss, forever bool
	var kill, zombie, overload, aggregation bool
	var multiCollector, rehome, skewedLoad bool
	var durable, killRecover, recoverVsRehome bool
	names := make(map[string]bool)
	for _, sc := range corpus {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		bursts = bursts || sc.BurstLen > 1
		skew = skew || len(sc.ClockOffsetsNs) > 0
		outage = outage || sc.SinkDownUntilNs > sc.SinkDownFromNs
		ackLoss = ackLoss || sc.AckLossEvery > 0
		restart = restart || sc.RestartForNs > 0
		spool = spool || sc.SpoolBytes > 0
		wireLoss = wireLoss || sc.DropEvery > 0
		forever = forever || sc.SinkDownForever
		kill = kill || sc.KillRebootAfterNs > 0
		zombie = zombie || sc.ZombieFlushAtNs > 0
		overload = overload || sc.OverloadCap > 0
		aggregation = aggregation || sc.ShipAggregates
		multiCollector = multiCollector || sc.Collectors > 1
		rehome = rehome || sc.CollectorFailAtNs > 0
		skewedLoad = skewedLoad || len(sc.AgentWeights) > 0
		durable = durable || sc.Durable
		killRecover = killRecover || (sc.Durable && sc.CollectorCrashAtNs > 0)
		recoverVsRehome = recoverVsRehome || (sc.Durable && sc.CollectorCrashAtNs > 0 && sc.CollectorFailAtNs > 0)
	}
	for axis, covered := range map[string]bool{
		"bursty emit":            bursts,
		"clock skew":             skew,
		"sink outage":            outage,
		"ack loss":               ackLoss,
		"agent restart":          restart,
		"spool overflow":         spool,
		"wire loss":              wireLoss,
		"sink down forever":      forever,
		"kill and reboot":        kill,
		"zombie stale epoch":     zombie,
		"collector overload":     overload,
		"in-probe aggregation":   aggregation,
		"multi-collector tier":   multiCollector,
		"collector crash rehome": rehome,
		"skewed agent load":      skewedLoad,
		"durable WAL ingest":     durable,
		"collector kill recover": killRecover,
		"recover vs rehome":      recoverVsRehome,
	} {
		if !covered {
			t.Errorf("fault axis %q not covered by any corpus scenario", axis)
		}
	}
}

// TestDigestSeparatesSeeds is the digest's own sanity check: different
// seeds must produce different traces, or the replay fingerprint is
// vacuous.
func TestDigestSeparatesSeeds(t *testing.T) {
	a, err := Run(Scenario{Name: "sep", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Scenario{Name: "sep", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a.Digest)
	}
}

// TestKitchenSink100x runs the kitchen-sink scenario at 100x record
// volume with sealed segments spilling to disk — the storage acceptance
// run: every invariant must stay green, the store must actually spill,
// compression must clear the 4x floor, and the resident footprint must
// stay bounded well below the flat-slice baseline.
func TestKitchenSink100x(t *testing.T) {
	var base Scenario
	for _, sc := range Corpus() {
		if sc.Name == "kitchen-sink" {
			base = sc
			break
		}
	}
	if base.Name == "" {
		t.Fatal("kitchen-sink not in corpus")
	}
	sc := base
	sc.Name = "kitchen-sink-100x"
	sc.Packets = base.Packets * 100
	sc.RingBytes = 64 * 1024
	// Stretch the horizon 10x and move the fault windows with it so the
	// outage and restart still land mid-workload.
	sc.HorizonNs = 1000 * sim.Millisecond
	sc.SinkDownFromNs = 400 * sim.Millisecond
	sc.SinkDownUntilNs = 550 * sim.Millisecond
	sc.RestartAtNs = 600 * sim.Millisecond
	sc.RestartForNs = 200 * sim.Millisecond
	sc.SpillDir = t.TempDir()

	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)

	st := res.Storage
	if st.Records() == 0 || st.SealedRecords == 0 {
		t.Fatalf("storage saw no sealed records: %+v", st)
	}
	if st.SpilledExtents == 0 || st.SpilledBytes == 0 {
		t.Fatalf("nothing spilled to %s: %+v", sc.SpillDir, st)
	}
	if ratio := st.CompressionRatio(); ratio < 4 {
		t.Fatalf("compression ratio %.2f, want >= 4", ratio)
	}
	// Bounded residency: with every head sealed and spilled, what stays
	// in memory (extent metadata + bloom filters) must be a small
	// fraction of what the flat store would hold resident.
	if st.ResidentBytes*4 > st.SealedRawBytes {
		t.Fatalf("resident %d B vs flat baseline %d B: not bounded", st.ResidentBytes, st.SealedRawBytes)
	}
	if st.ReadErrors != 0 {
		t.Fatalf("segment read errors: %d", st.ReadErrors)
	}
	// The storage layer must conserve what the pipeline stored.
	if stored := sumAgents(res, func(a AgentReport) uint64 { return a.Stored }); st.Records() != stored {
		t.Fatalf("storage holds %d records, pipeline stored %d", st.Records(), stored)
	}
}

// TestSeedSweep replays fault-heavy scenarios across fresh seeds. The
// default 3 seeds ride in tier-1; `make conformance` raises the count
// via CONFORMANCE_SEEDS for a deeper sweep.
func TestSeedSweep(t *testing.T) {
	seeds := 3
	if s := os.Getenv("CONFORMANCE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CONFORMANCE_SEEDS %q", s)
		}
		seeds = n
	}
	byName := make(map[string]Scenario)
	for _, sc := range Corpus() {
		byName[sc.Name] = sc
	}
	for _, name := range []string{
		"baseline-steady", "bursty-emit-ring-drops", "spool-overflow", "kitchen-sink",
		"agent-restart-reprovision", "zombie-epoch-fencing", "collector-overload-degrade",
		"in-probe-aggregation", "collector-crash-rehome", "skewed-agent-load",
		"collector-kill-recover", "recover-vs-rehome",
		"reprovision-drains-aggregates", "recover-after-agent-reboot",
		"rehome-then-successor-crash",
	} {
		base, ok := byName[name]
		if !ok {
			t.Fatalf("sweep scenario %q not in corpus", name)
		}
		for i := 0; i < seeds; i++ {
			sc := base
			sc.Seed = int64(1000 + 7919*i)
			sc.Name = fmt.Sprintf("%s@seed%d", name, sc.Seed)
			t.Run(sc.Name, func(t *testing.T) {
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				report(t, res)
				// Shown by -v: diff two checkouts' sweeps on these lines.
				t.Logf("digest %s %s", sc.Name, res.Digest)
			})
		}
	}
}
