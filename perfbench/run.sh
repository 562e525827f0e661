#!/usr/bin/env bash
# Builds the rlcint end-to-end benchmark from source and runs it.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, temporary files) and every
# trace file lands under .bench_build/perfbench in the current directory, so
# the run reads and writes nothing outside the checkout. Build output goes to
# stderr; the benchmark's result is the last line of stdout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
