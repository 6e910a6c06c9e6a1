package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// metricSpec declares one end-to-end metric the way BENCHMARK.json does:
// its unit, which direction is better, and the share of the parent's
// median by which it may get worse before a change counts as a
// regression. The bounds come from measurement (README.md, "Measured
// noise"), not from hope.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_rec_per_s", "rec/s", "higher", 0.25},
	{"probe_ns_per_pkt", "ns", "lower", 0.25},
	{"cpu_us_per_rec", "us", "lower", 0.25},
	{"lag_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_rec", "count", "lower", 0.02},
	{"wire_bytes_per_rec", "B", "lower", 0.02},
	{"stored_bytes_per_rec", "B", "lower", 0.03},
	{"query_ms", "ms", "lower", 0.25},
	{"lookup_us", "us", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func (m metricSpec) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs two sets of full passes of this same binary, each pass a
// fresh process per workload as the benchmark's driver runs it, and
// applies the driver's acceptance rule: within each set, the
// interquartile spread of every end-to-end metric but setup_s stays
// within the metric's bound, and the second set's median is not worse
// than the first's by more than the bound. It returns the exit code.
func selfCheck(stateDir string, seconds, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[set][workload][metric] = one value per pass
	var values [2]map[string]map[string][]float64
	seed := uint64(1)
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for pass := 0; pass < runs; pass++ {
			for _, w := range workloads {
				got, err := runChild(self, w.name, seed, seconds, stateDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				if values[set][w.name] == nil {
					values[set][w.name] = make(map[string][]float64)
				}
				for name, v := range got {
					values[set][w.name][name] = append(values[set][w.name][name], v)
				}
			}
			seed++
			fmt.Fprintf(os.Stderr, "selfcheck: set %d pass %d/%d done\n", set+1, pass+1, runs)
		}
	}

	breaches := 0
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for _, w := range workloads {
		for _, m := range endToEndSpecs {
			a, b := values[0][w.name][m.name], values[1][w.name][m.name]
			worse := m.worsening(median(a), median(b))
			sa, sb := spread(a), spread(b)
			flag := ""
			if worse > m.bound {
				flag = " DRIFT"
			}
			if m.name != "setup_s" && (sa > m.bound || sb > m.bound) {
				flag += " SPREAD"
			}
			if flag != "" {
				breaches++
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, m.name, median(a), median(b), 100*worse, 100*sa, 100*sb, 100*m.bound, flag)
		}
	}
	if breaches > 0 {
		fmt.Printf("selfcheck: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("selfcheck: two same-code sets agree within every bound")
	return 0
}

// runChild runs one workload in a fresh process and returns the metrics
// of its result line.
func runChild(self, workload string, seed uint64, seconds int, stateDir string) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "-state", stateDir)
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported failed operations")
	}
	got := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		got[name] = m.Value
	}
	return got, nil
}
