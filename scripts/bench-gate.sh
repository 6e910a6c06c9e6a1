#!/usr/bin/env bash
# Regression gate over the pipeline benchmark (BENCHMARK.json): runs
# alternating parent/change pairs of bench/run.sh per workload, prints the
# median [q1..q3] of every end-to-end metric on both sides and how many
# pairs the change won, and exits non-zero when a change median is worse
# than the parent's by more than that metric's bound, when more operations
# fail than at the parent, or when a run is incorrect. Beside each
# normalised median (stated at nominal machine speed) it prints the raw
# one, what the clock read, with the pairs won on it, and flags a metric
# whose raw and normalised medians move in opposite directions
# (RAW-OPPOSITE: the yardstick, not the change, may have moved it). The
# raw figures inform; pass and fail read only the normalised ones.
#
#   scripts/bench-gate.sh <parent-ref> [pairs]
#
# The parent is exported (git archive) under .bench_build/gate-parent;
# every run's result line is kept in .bench_build/gate/ as
# <workload>.<side>.<seed>.json, its full results (--out, raw values
# included) as <workload>.<side>.<seed>.full.json, stderr in
# .bench_build/gate/log. Pair i
# runs both sides on seed i, the parent first when i is odd. Nothing else
# should be running: the benchmark uses every CPU.
#
# An interrupted gate resumes: .bench_build/gate/stamp records the parent
# commit, HEAD, a hash of the uncommitted diff and the pair count, and
# while it matches, runs whose result line is already there are not
# repeated. Any mismatch wipes both directories and starts over.
set -euo pipefail

parent_ref=${1:?usage: bench-gate.sh <parent-ref> [pairs]}
pairs=${2:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
gate="$root/.bench_build/gate"
parent="$root/.bench_build/gate-parent"
parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
stamp="$parent_sha $(git rev-parse HEAD) $(git diff HEAD | sha256sum | cut -d' ' -f1) $pairs"
if [[ "$(cat "$gate/stamp" 2>/dev/null)" != "$stamp" ]]; then
	rm -rf "$gate" "$parent"
	mkdir -p "$gate" "$parent"
	git archive "$parent_sha" | tar -x -C "$parent"
	echo "$stamp" >"$gate/stamp"
fi

seconds=$(jq -r .run_seconds BENCHMARK.json)

# run <side> <checkout> <workload> <seed>
run() {
	local out="$gate/$3.$1.$4.json"
	if jq -e 'has("metrics")' "$out" >/dev/null 2>&1; then
		echo "== $3 seed $4: $1 (kept)" >&2
		return
	fi
	echo "== $3 seed $4: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
		--out "$gate/$3.$1.$4.full.json") 2>>"$gate/log" | tail -n 1 >"$out"
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for i in $(seq 1 "$pairs"); do
		if ((i % 2)); then
			run parent "$parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$parent" "$w" "$i"
		fi
	done
done

for f in "$gate"/*.*.*.json; do
	[[ $f == *.full.json ]] && continue
	full=${f%.json}.full.json
	[[ -f $full ]] || full=/dev/null # a run kept from a gate that wrote no full results
	jq -c --arg file "$(basename "$f")" --slurpfile full "$full" \
		'{file: $file, run: ., raw: ($full[0][0].end_to_end // {} | map_values(.raw))}' "$f"
done | jq -s --slurpfile spec BENCHMARK.json '
	def pct(p): sort as $s | (($s | length) - 1) * p
		| $s[floor] + ($s[ceil] - $s[floor]) * (. - floor);
	def stats: {med: pct(0.5), q1: pct(0.25), q3: pct(0.75)};
	$spec[0] as $b
	| [.[] | (.file | split(".")) as $p | {w: $p[0], side: $p[1], seed: $p[2], run: .run, raw: .raw}] as $runs
	| def failed(s): [$runs[] | select(.side == s) | .run.failed] | add;
	def values_of(s; $w; $m): [$runs[] | select(.w == $w and .side == s) | .run.metrics[$m].value | values];
	def raws_of(s; $w; $m): [$runs[] | select(.w == $w and .side == s) | .raw[$m] | values];
	# One entry per seed both sides ran: how much better the change read,
	# on the normalised value (v) or the raw one (.raw).
	def gains_by($w; $m; f): [$runs[] | select(.w == $w) | {seed, side, v: f} | select(.v != null)]
		| group_by(.seed) | map(select(length == 2) | (map({(.side): .v}) | add)
			| if $m.better == "lower" then .parent - .change else .change - .parent end);
	def gains($w; $m): gains_by($w; $m; .run.metrics[$m.name].value);
	def sign: if . > 0 then 1 elif . < 0 then -1 else 0 end;
	{
		failed: {parent: failed("parent"), change: failed("change")},
		incorrect: [$runs[] | select(.run.correct != true) | "\(.w) \(.side)"],
		rows: [
			$b.workloads[].name as $w | $b.end_to_end[] as $m
			| values_of("parent"; $w; $m.name) as $pv | values_of("change"; $w; $m.name) as $cv
			| select(($pv | length) > 0 and ($cv | length) > 0)
			| ($pv | stats) as $ps | ($cv | stats) as $cs
			| (if $m.better == "lower" then $cs.med - $ps.med else $ps.med - $cs.med end) as $worse
			| (if $ps.med != 0 then $worse / ($ps.med | fabs) elif $worse > 0 then infinite else 0 end) as $rel
			| gains($w; $m) as $g
			| raws_of("parent"; $w; $m.name) as $prv | raws_of("change"; $w; $m.name) as $crv
			| (if ($prv | length) > 0 and ($crv | length) > 0 then {p: ($prv | stats), c: ($crv | stats)} else null end) as $raw
			| gains_by($w; $m; .raw[$m.name]) as $rg
			| {w: $w, m: $m.name, unit: $m.unit, p: $ps, c: $cs, rel: $rel, bound: $m.bound, regressed: ($rel > $m.bound),
				won: ($g | map(select(. > 0)) | length), lost: ($g | map(select(. < 0)) | length), pairs: ($g | length),
				raw: $raw, rawwon: ($rg | map(select(. > 0)) | length), rawlost: ($rg | map(select(. < 0)) | length),
				opposite: ($raw != null and (($cs.med - $ps.med) | sign) * (($raw.c.med - $raw.p.med) | sign) < 0)}
		]
	}' >"$gate/report.json"

jq -r '
	def r: if . == 0 then "0" else pow(10; 4 - (fabs | log10 | floor)) as $k | (. * $k | round) / $k | tostring end;
	def q: "\(.med | r) [\(.q1 | r)..\(.q3 | r)]";
	.rows[] | [.w, .m, (.p | q), (.c | q), (if .raw then "\(.raw.p | q) -> \(.raw.c | q)" else "-" end),
		.unit, "won \(.won) lost \(.lost) of \(.pairs)" + (if .raw then " (raw \(.rawwon)/\(.rawlost))" else "" end),
		"\((.rel * 1000 | round) / 10)% worse (bound \(.bound * 100)%)",
		(if .regressed then "REGRESSED" else "ok" end) + (if .opposite then " RAW-OPPOSITE" else "" end)]
	| @tsv' "$gate/report.json" |
	awk -F'\t' 'BEGIN { printf "%-16s %-21s %-40s %-40s %-60s %-6s %-34s %s\n", "workload", "metric", "parent median [q1..q3]", "change median [q1..q3]", "raw: parent -> change", "unit", "pairs (ties: neither; raw won/lost)", "verdict" }
		{ printf "%-16s %-21s %-40s %-40s %-60s %-6s %-34s %s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }'
jq -r '"failed operations: parent \(.failed.parent), change \(.failed.change); incorrect runs: \(.incorrect | length) \(.incorrect | join(", "))"' "$gate/report.json"

jq -e '(.rows | map(select(.regressed)) | length) == 0 and .failed.change <= .failed.parent and (.incorrect | length) == 0' \
	"$gate/report.json" >/dev/null || {
	echo "bench-gate: FAIL" >&2
	exit 1
}
echo "bench-gate: ok"
