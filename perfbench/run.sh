#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.
#
#   bash perfbench/run.sh --workload cached-bagg-topk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, binary, spans) stays under .bench_build in that directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -f "$root/adaptiverank.go" ]]; then
	echo "perfbench: $root is not an adaptiverank checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
