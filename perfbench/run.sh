#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload chat_router --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache and temporary files, the go command's config
# directory, the binary, and the span files of traced runs.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
