#!/usr/bin/env bash
# Builds p2pbench from the sources of the checkout it is started in and runs
# it with the given flags. Run it from the repository root:
#
#   bash cmd/p2pbench/run.sh --workload campus --seed 1 --seconds 10 --trace 0
#
# Every file the build or the run writes stays under .bench_build in the
# current directory. Outside a full checkout the build fails, and so does
# this script.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/cmd/p2pbench" && go build -o "$out/p2pbench" .) >&2
exec "$out/p2pbench" "$@"
