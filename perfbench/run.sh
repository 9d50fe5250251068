#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it with
# the given arguments (see README.md). Every build artefact, the Go build
# cache and temporary files stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
