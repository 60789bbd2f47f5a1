#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it. Run from the repository root:
#   bash perfbench/run.sh --workload handshake --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry counters under the user config directory) stays in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
export PERFBENCH_COMMAND="bash perfbench/run.sh $*"
exec "$out/perfbench" "$@"
