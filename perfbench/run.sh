#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-detailed --seed 7 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ (the
# Go build cache and the go command's config directory included), and
# the module's only dependency is the repository itself, so nothing is
# fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
