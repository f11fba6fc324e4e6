#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# checkout's root) and runs it with the arguments given. Everything the Go
# toolchain writes - build cache, temporary files, the binary - stays inside
# that directory, and nothing is fetched from the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
bin="$out/stormbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOPROXY=off

# Rebuild only when a Go source or module file of the repository is newer
# than the binary: the up-to-date check then costs a few milliseconds a run.
root="$(dirname "$here")"
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \
	\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .) >&2
fi
exec "$bin" "$@"
