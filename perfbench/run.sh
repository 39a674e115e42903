#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run it from the top of the checkout:
#
#   bash perfbench/run.sh --workload procs --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache and the toolchain's temporary files go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

top=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$top/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=

# The go command keeps its local telemetry under the user config directory.
(cd "$top/perfbench" && XDG_CONFIG_HOME=$out/config go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
