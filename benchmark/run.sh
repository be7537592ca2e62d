#!/usr/bin/env bash
# Builds the benchmark against the checkout it sits in and runs it, from
# the root of that checkout, with the given arguments. Everything it
# writes stays inside the checkout: the Go build cache and the binary
# under .bench_build/, reports, traces and journals under benchmark/out/
# (journals on /dev/shm when the host has it; see README, "Disk").
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The default build cache is under $HOME, outside the checkout.
export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/hpas-benchmark" .)
cd "$root"
exec "$build/hpas-benchmark" "$@"
