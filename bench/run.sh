#!/bin/sh
# run.sh builds and runs sievebench, the repository benchmark. Run it from
# the repository root; every argument is passed to sievebench:
#
#   sh bench/run.sh -seed 1                       # all four workloads
#   sh bench/run.sh --workload csv-hit --seed 3 --seconds 20 --trace 0
#   sh bench/run.sh compare parent*.json -- change*.json
#
# The Go build cache, module cache and tool configuration live under
# .bench_build/ in the repository root, so a run reads and writes nothing
# outside the checkout and needs no network.
set -eu

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root (no bench/go.mod here)" >&2
	exit 2
fi

build="$root/.bench_build"
GOCACHE="$build/gocache"
GOPATH="$build/gopath"
GOMODCACHE="$build/gopath/pkg/mod"
XDG_CONFIG_HOME="$build/config"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=-mod=readonly
export GOCACHE GOPATH GOMODCACHE XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOFLAGS

mkdir -p "$build/bin"
go -C bench build -o "$build/bin/sievebench" ./sievebench
exec "$build/bin/sievebench" -root "$root" "$@"
