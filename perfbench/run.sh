#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
# Run from the root of a predrm checkout:
#
#   bash perfbench/run.sh --workload vt-heuristic --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and output stays under .bench_build/ in the
# checkout. The script fails (and prints no result) when the predrm
# sources are not next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
