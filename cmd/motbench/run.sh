#!/usr/bin/env bash
# Builds motbench and motserve from the checkout this is run in, then runs
# motbench with the given arguments. Run it from the repository root:
#
#   bash cmd/motbench/run.sh --workload serve-walk --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
go build -C cmd/motbench -o "$build/motbench" .
go build -o "$build/motserve" ./cmd/motserve
exec "$build/motbench" -motserve "$build/motserve" -dir "$build/traces" "$@"
