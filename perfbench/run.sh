#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, span
# files and result files. It refuses to run (exit 2) when the repository's
# sources are not there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the sources are missing here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Rebuild when any Go source or module file is newer than the binary.
bin="$build/perfbench/perfbench"
if [[ ! -x "$bin" ]] || [[ -n $(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name 'go.mod' -o -name 'pins.json' \) -newer "$bin" -print -quit) ]]; then
	(cd "$root/perfbench" && go build -o "$bin" .) >&2
fi

if [[ -z "${PERFBENCH_COMMIT:-}" ]]; then
	PERFBENCH_COMMIT=unknown
	[[ -e "$root/.git" ]] && PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
# A fingerprint of the program's sources, for checkouts without git.
PERFBENCH_SOURCE=$(cd "$root" && find internal cmd perfbench -name '*.go' -print0 | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE

exec "$bin" --out "$build/perfbench" "$@"
