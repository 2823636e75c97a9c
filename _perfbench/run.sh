#!/usr/bin/env bash
# Builds solard, solargate and the load generator from the checkout's
# source, then runs one benchmark workload:
#
#   bash _perfbench/run.sh --workload fill --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, the binaries, the servers'
# durable stores and the traced run's span files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
(cd _perfbench && go build -o "$build/bin/" . solarcore/cmd/solard solarcore/cmd/solargate) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
