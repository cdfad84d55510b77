#!/usr/bin/env bash
# Builds npqbench from the sources in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash npqbench/run.sh --workload pps64-copy-sync --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, tool configuration and the binary all
# live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/npqbench" && go build -o "$out/npqbench" .)
exec "$out/npqbench" "$@"
