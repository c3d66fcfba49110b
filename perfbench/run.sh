#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through. Build outputs, the Go build cache and the Go
# command's own configuration stay under .bench_build in the checkout root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
