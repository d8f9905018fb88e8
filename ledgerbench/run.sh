#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it sits in and runs it.
# Every build artefact, cache and scratch file stays under .bench_build
# at the checkout root. Flags pass through, e.g.:
#
#   bash ledgerbench/run.sh --workload fig9-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
cd "$root"
exec "$out/ledgerbench" "$@"
