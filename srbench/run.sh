#!/usr/bin/env bash
# Builds the srbench load benchmark from this checkout's sources and runs it
# from the checkout root. Every argument is passed on to the benchmark:
#
#   bash srbench/run.sh --workload verify --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/config" "$out/tmp"
# Everything the go command writes (build cache, module cache, temporary
# files, its own config and telemetry) stays under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/srbench" && go build -buildvcs=false -o "$out/srbench" .) >&2

cd "$root"
exec "$out/srbench" --dir "$out" "$@"
