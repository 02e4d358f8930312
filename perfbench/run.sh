#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload sweep-sim --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
