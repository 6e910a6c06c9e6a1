// Command bench is the repository's pipeline benchmark: it stands up the
// whole record path in one process — simulated kernel, compiled probes,
// per-CPU rings, agent, TCP transport over loopback, collector, WAL,
// segment store — drives a workload of fixed size through it, checks the
// outcome against ground truth, and reports end-to-end metrics (timed
// run) or per-layer metrics (traced run). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds   = flag.Int("seconds", referenceSeconds, "time budget the workload is sized for")
		trace     = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics, 0 reports end-to-end metrics")
		out       = flag.String("out", "", "also write the full results as JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run two same-code sets of full passes and compare their medians against the bounds")
		runs      = flag.Int("runs", 5, "passes per set for -selfcheck")
		stateDir  = flag.String("state", ".bench_build", "directory (inside the checkout) that holds run state and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fatal(err)
	}
	if *selfcheck {
		os.Exit(selfCheck(*stateDir, *seconds, *runs))
	}

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		todo = []*workload{w}
	}

	var results []*result
	for _, w := range todo {
		// Each run has a state directory of its own, removed afterwards; a
		// traced run leaves its span file beside it.
		root := filepath.Join(*stateDir, fmt.Sprintf("run-%d-%s", os.Getpid(), w.name))
		res, err := runWorkload(w.scaled(*seconds), *seed, root, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printReport(os.Stderr, res)
		results = append(results, res)
	}
	if *out != "" {
		body, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(body, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The contract's last line: one JSON object for the run, the merge
	// of all of them when several workloads ran.
	line, failed := summaryLine(results, *trace == 1)
	fmt.Println(line)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// summaryLine renders the result line the benchmark contract asks for:
// exactly correct, attempted, failed and metrics. With one workload the
// metrics carry their declared names; with several, each name is
// prefixed by its workload.
func summaryLine(results []*result, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, res := range results {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		set := res.EndToEnd
		if traced {
			set = res.PerLayer
		}
		for name, m := range set {
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	body, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(body), !out.Correct
}

func printReport(f *os.File, res *result) {
	mode := "timed"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s seed=%d %s: %s nproc=%d GOMAXPROCS=%d state=%s (%s) wall=%.1fs machine_slowness=%.3f\n",
		res.Workload, res.Seed, mode, res.GoVersion, res.NumCPU, res.GoMaxProcs, res.StateDir, res.StateDirFS, res.WallS, res.Slowness)
	c := res.Counts
	fmt.Fprintf(f, "   firings=%d rounds=%d batches=%d agg_frames=%d extents=%d checkpoints=%d wal_entries=%d replayed=%d adopted=%d\n",
		c.Firings, c.Rounds, c.Batches, c.AggFrames, c.Extents, c.Checkpoints, c.WALEntries, c.Replayed, c.Adopted)
	names := make([]string, len(endToEndSpecs))
	for i, m := range endToEndSpecs {
		names[i] = m.name
	}
	printMetrics(f, "end-to-end", res.EndToEnd, names)
	if res.Traced {
		names = names[:0]
		for name := range res.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		printMetrics(f, "per-layer", res.PerLayer, names)
	}
	fmt.Fprintf(f, "   ops_attempted=%d ops_failed=%d\n", res.Attempted, res.Failed)
	for _, msg := range res.Failures {
		fmt.Fprintf(f, "   FAILED: %s\n", msg)
	}
}

func printMetrics(f *os.File, title string, set map[string]metric, names []string) {
	fmt.Fprintf(f, "   %s:\n", title)
	for _, name := range names {
		m, ok := set[name]
		if !ok {
			continue
		}
		fmt.Fprintf(f, "     %-36s %14.4f %-6s n=%d", name, m.Value, m.Unit, m.Samples)
		if m.Raw != 0 {
			fmt.Fprintf(f, "  raw=%.4f", m.Raw)
		}
		if m.TailPct > 0 {
			fmt.Fprintf(f, "  p%g=%.4f", m.TailPct, m.Tail)
		}
		fmt.Fprintln(f)
	}
}
