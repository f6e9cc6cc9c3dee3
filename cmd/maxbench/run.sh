#!/usr/bin/env bash
# Builds maxbench and maxpowerd from the checkout's source and runs the
# benchmark with the given arguments, e.g.
#
#   bash cmd/maxbench/run.sh --workload stream-timed --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every file the build and the
# run write stays under .bench_build/ in that directory: the Go build
# cache, the toolchain's own config and temporary files, both binaries,
# and the benchmark's scratch space (the daemons' working directories).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/work"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=

# maxbench is a module of its own that uses the repository through a
# replace directive, so both binaries build from this checkout.
(cd "$root/cmd/maxbench" && go build -o "$build/maxbench" . && go build -o "$build/maxpowerd" repro/cmd/maxpowerd)

exec "$build/maxbench" -bin "$build" -work "$build/work" "$@"
