#!/usr/bin/env bash
# Builds cliffhangerd and the perfbench program from the checkout it is run
# in, then runs perfbench with the arguments given. Run it from the root of
# the repository, e.g.
#
#   bash perfbench/run.sh --workload zipf-get-pipelined --seed 1 --seconds 30 --trace 0
#
# Binaries, the Go build cache, daemon logs, result records and span files
# all go under .bench_build in that checkout.
set -euo pipefail
root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/cmd/cliffhangerd ]]; then
	echo "perfbench: $root holds no cliffhanger checkout (go.mod, cmd/cliffhangerd)" >&2
	exit 1
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# With telemetry on, the go command forks an upload process that outlives
# the build; turning it off keeps every process the benchmark starts waited on.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/cliffhangerd" ./cmd/cliffhangerd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
