#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload char-full --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 5
#
# Everything the build and the runs leave behind goes to .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" "$@"
