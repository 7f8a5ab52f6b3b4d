#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, module path, Go's
# own config) stays under .bench_build/ in the checkout this script is in.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C "$here" -o "$build/dynbench" .

exec "$build/dynbench" "$@"
