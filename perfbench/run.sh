#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every
# argument passes through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload share --runs 10
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ at the checkout root, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
