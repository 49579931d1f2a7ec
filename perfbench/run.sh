#!/usr/bin/env bash
# Builds the benchmark and ipexd from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload simcore --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache is pointed inside it, and
# no module is fetched (the repository uses the standard library only).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/ipexd" ipex/cmd/ipexd)
exec "$out/perfbench" --ipexd "$out/ipexd" "$@"
