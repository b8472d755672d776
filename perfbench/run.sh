#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload orbit-png --seed 1 --seconds 12 --trace 0
#
# Build outputs (binary, Go build cache, the go command's own config and
# telemetry files) stay under $CARGO_TARGET_DIR, default .bench_build,
# inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
