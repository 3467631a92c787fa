#!/usr/bin/env bash
# Builds clusterd and the benchmark from this checkout's source, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload grid-synth --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# goes under .bench_build/ in the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/clusterd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a clustervp checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# The measured processes run with the Go runtime's defaults, whatever
# the caller's environment says.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
# Keep the toolchain's cache, module, config (telemetry) and temporary
# writes in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/clusterd" ./cmd/clusterd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -clusterd "$build/bin/clusterd" "$@"
