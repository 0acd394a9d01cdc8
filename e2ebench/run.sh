#!/usr/bin/env bash
# Builds the end-to-end benchmark and the krum-scenariod daemon from the
# checkout's sources, then runs one workload:
#
#   bash e2ebench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# trace file lives under .bench_build/e2ebench, so the benchmark reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	GOTELEMETRY=off

(cd "$root/e2ebench" &&
	go build -o "$out/e2ebench" . &&
	go build -o "$out/krum-scenariod" krum/cmd/krum-scenariod)

exec "$out/e2ebench" -root "$root" -out "$out" -scenariod "$out/krum-scenariod" "$@"
