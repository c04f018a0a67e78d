#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it, passing its
# arguments through. Run it from the repository root:
#
#	bash perfbench/run.sh --workload dense-clique --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary go to .bench_build/,
# so a run reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
