#!/usr/bin/env bash
# Builds the benchmark and the rewire-serve daemon from the checkout in
# the current directory, then runs the benchmark with the given
# arguments. Build outputs and the Go build cache stay in .bench_build.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 45 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/rewire-serve" rewire/cmd/rewire-serve
cd "$root"
exec "$out/perfbench" -serve-bin "$out/rewire-serve" "$@"
