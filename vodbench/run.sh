#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash vodbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output, the Go build cache and
# temporary files go to .bench_build/ there, so nothing outside the
# checkout is written.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "vodbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/vodbench" && go build -o "$out/vodbench" .) >&2
exec "$out/vodbench" "$@"
