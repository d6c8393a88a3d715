#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload yelp_mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary, the
# stores' log files — stays under .bench_build/ in the checkout, and the
# toolchain is kept off the network. The benchmark is its own module (go.mod
# here, `replace fishstore => ../`), so it fails to build, and this script
# exits non-zero, where the store's source is absent.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config # the go command keeps counters in its user config directory
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/fishstore-benchmark" .)
cd "$root"
exec "$build/fishstore-benchmark" "$@"
