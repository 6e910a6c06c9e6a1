#!/usr/bin/env bash
# Size of the program: lines of non-test Go source, the pipeline benchmark
# (bench/, its own module) and its build directory left out. The size line
# of a CHANGES.md entry is this command's output before and after.
#
#   scripts/loc.sh [dir]    (default: the repository root)
set -euo pipefail
cd "${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
