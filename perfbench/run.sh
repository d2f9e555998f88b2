#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep|serve-hot|serve-learn \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, temporary registries, span files, result records) stays
# under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --out "$out" "$@"
