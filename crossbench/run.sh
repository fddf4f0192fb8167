#!/usr/bin/env bash
# Builds bfsd and the crossbench driver from the checkout this script
# sits in, then runs one benchmark invocation. Run it from the
# repository root:
#
#   bash crossbench/run.sh --workload graph500-s18 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the current directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry state in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (its default, local mode) the go command forks a
# detached child that outlives this script; mode "off" stops the fork.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

if [ ! -f go.mod ] || [ ! -d cmd/bfsd ]; then
	echo "run.sh: no crossbfs source here; run it from the repository root" >&2
	exit 1
fi

go build -o "$out/bfsd" ./cmd/bfsd
(cd crossbench && go build -o "$out/crossbench" .)
exec "$out/crossbench" -bfsd "$out/bfsd" -out "$out" "$@"
