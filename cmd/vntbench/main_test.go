package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
)

const goldenPath = "testdata/quick.golden"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run")

// slow are the figures left to `make nochange`: together they take most
// of vntbench -quick's wall time.
var slow = map[string]bool{"fig12b-overlay-throughput": true, "fig13a-softirq": true}

// elapsed matches the wall-time line after each experiment, the one part
// of the output that is not deterministic.
var elapsed = regexp.MustCompile(`(?m)^\(\d+\.\ds\)\n`)

// TestQuickGolden pins the fast figures of `vntbench -quick`: the
// simulation is seeded, so every row must match goldenPath exactly, and a
// change to the testbed, the tracer or the session that moves a figure
// cannot land unnoticed. `go test ./cmd/vntbench -update` regenerates it.
func TestQuickGolden(t *testing.T) {
	var out bytes.Buffer
	if failed := run(&out, func(name string) bool { return !slow[name] }, true); failed > 0 {
		t.Fatalf("%d experiments failed", failed)
	}
	got := elapsed.ReplaceAll(out.Bytes(), nil)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/vntbench -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("vntbench -quick output differs from %s:\n got:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}
