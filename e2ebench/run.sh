#!/usr/bin/env bash
# Builds the e2ebench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "e2ebench: run from the root of a locmps checkout (go.mod and internal/ missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/spans"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --spans-dir "$build/spans" "$@"
