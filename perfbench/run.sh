#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache live under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits nonzero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
