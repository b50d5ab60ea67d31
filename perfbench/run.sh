#!/usr/bin/env bash
# Builds the gesmc benchmark from the sources in the current directory
# (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the trace files stay under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. The
# build needs the repository around perfbench/; without it the script
# fails before printing a result.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/go/cache" "$out/go/path" "$out/go/tmp" "$out/go/config"
export GOCACHE=$out/go/cache GOPATH=$out/go/path GOTMPDIR=$out/go/tmp \
	XDG_CONFIG_HOME=$out/go/config GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/traces" "$@"
