#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the arguments given. Everything the build
# writes (the Go build cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
