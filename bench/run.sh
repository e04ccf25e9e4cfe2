#!/usr/bin/env bash
# Builds stackbench from the checkout this script lives in and runs it with
# the arguments given. Everything the build and the run write stays inside
# the checkout: the Go build cache, the binary and the fleet's temp
# directories all live under .bench_build/ at its root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
	export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
	export XDG_CONFIG_HOME="$build/config"
	go build -C "$here" -o "$build/stackbench" .
)
cd "$root"
exec "$build/stackbench" "$@"
