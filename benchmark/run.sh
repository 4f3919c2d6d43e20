#!/usr/bin/env bash
# Builds the declnet benchmark from the sources of the checkout it is
# run in and runs it with the given flags. Run it from the repository
# root: bash benchmark/run.sh --workload gossip-fair --seed 1
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory, and the toolchain stays
# offline. Outside a full checkout the build fails and the script exits
# non-zero without running anything.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd benchmark && go build -o "$out/declnet-bench" .)
exec "$out/declnet-bench" "$@"
