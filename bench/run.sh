#!/usr/bin/env bash
# Builds pribench from this checkout and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload service-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout; no network access is needed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user's config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$out/pribench" ./cmd/pribench)
cd "$root"
exec "$out/pribench" -workdir "$out/work" "$@"
