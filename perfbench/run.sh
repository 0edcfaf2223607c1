#!/usr/bin/env bash
# Builds the poseidon binaries and the benchmark from the checkout this
# script is run in (its root must be the working directory), then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload train-cnn-tcp --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temp files and traces all stay
# under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/poseidon-worker" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/poseidon-cluster ./cmd/poseidon-worker ./cmd/poseidon-serve ./cmd/poseidon-lb >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
