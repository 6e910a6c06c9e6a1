#!/usr/bin/env bash
# "Nothing observable changed" as a command: compares the working tree
# with a parent commit on four outputs and exits non-zero on any
# difference:
#
#   - the full `vntbench -quick` output, elapsed-time lines stripped;
#   - the `digest` lines of the conformance seed sweep at
#     CONFORMANCE_SEEDS (default 25: 15 scenarios x 25 seeds = 375 lines);
#   - internal/conformance/testdata/digests.golden;
#   - the stdout of every examples/ program, the public API's end-to-end
#     users, each under a header line naming it.
#
#   scripts/nochange.sh <parent-ref>
#
# The parent is exported (git archive) under .bench_build/nochange-parent
# and each side's outputs are kept in .bench_build/nochange/<side>.*.
# Takes about two minutes on 2 vCPUs.
set -euo pipefail

parent_ref=${1:?usage: nochange.sh <parent-ref>}
seeds=${CONFORMANCE_SEEDS:-25}

root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/nochange"
parent="$root/.bench_build/nochange-parent"
rm -rf "$out" "$parent"
mkdir -p "$out" "$parent"
git archive "$(git rev-parse --verify "$parent_ref^{commit}")" | tar -x -C "$parent"

# capture <side> <checkout>
capture() {
	echo "== $1: vntbench -quick" >&2
	(cd "$2" && go build -o "$out/$1.vntbench" ./cmd/vntbench)
	(cd "$2" && "$out/$1.vntbench" -quick) | sed -E '/^\([0-9]+\.[0-9]s\)$/d' >"$out/$1.vntbench.txt"
	echo "== $1: seed sweep ($seeds seeds)" >&2
	(cd "$2" && CONFORMANCE_SEEDS=$seeds go test -count=1 -v -run TestSeedSweep ./internal/conformance) |
		grep -oE 'digest [^ ]+ [^ ]+$' >"$out/$1.sweep.txt"
	cp "$2/internal/conformance/testdata/digests.golden" "$out/$1.golden.txt"
	echo "== $1: examples" >&2
	: >"$out/$1.examples.txt"
	for dir in "$2"/examples/*/; do
		name=$(basename "$dir")
		(cd "$2" && go build -o "$out/$1.example.$name" "./examples/$name")
		echo "== examples/$name" >>"$out/$1.examples.txt"
		(cd "$2" && "$out/$1.example.$name") >>"$out/$1.examples.txt"
	done
}

capture parent "$parent"
capture change "$root"

status=0
for what in vntbench sweep golden examples; do
	n=$(wc -l <"$out/change.$what.txt")
	if diff -u "$out/parent.$what.txt" "$out/change.$what.txt"; then
		echo "nochange: $what identical ($n lines)"
	else
		echo "nochange: $what DIFFERS" >&2
		status=1
	fi
done
exit $status
