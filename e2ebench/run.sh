#!/usr/bin/env bash
# Builds the end-to-end benchmark from source into .bench_build and runs
# it with the given arguments. Run from the repository root, e.g.
#   bash e2ebench/run.sh --workload http-warm --seed 1 --seconds 10 --trace 0
# The Go build cache and settings live under .bench_build too, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly \
	XDG_CONFIG_HOME="$out/config"
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
