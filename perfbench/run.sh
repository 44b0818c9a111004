#!/usr/bin/env bash
# Builds appclassd and the perfbench program from this checkout into
# .bench_build/ and runs perfbench with the given arguments, e.g.
#   bash perfbench/run.sh --workload fleet-saturate --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/appclassd || ! -d internal ]]; then
	echo "perfbench: $root is not an appclassd source checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every build artefact and temporary file inside the checkout and
# never reach for a toolchain or module download.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off CGO_ENABLED=0
unset GOMAXPROCS GOGC GOMEMLIMIT
go build -o "$out/appclassd" ./cmd/appclassd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/appclassd" -work "$out/work" "$@"
