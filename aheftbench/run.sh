#!/usr/bin/env bash
# Builds aheftd and the benchmark from the source tree this is run from
# (the repository root), keeping every build product, cache and run
# file under .bench_build/, then runs the benchmark with the given
# arguments:
#
#	bash aheftbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
#	bash aheftbench/run.sh --steady 10 --seconds 20   # spread of every metric
#
# The benchmark's own unit tests: cd aheftbench && go test ./...
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/aheftd" ]; then
	echo "run.sh: no aheft source tree in $root (go.mod, cmd/aheftd); run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
# The go command starts a detached telemetry upload process, at most once
# a day per config directory, that outlives the command; the config
# directory here is new in every checkout, so switch telemetry off.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/aheftd" ./cmd/aheftd
(cd aheftbench && go build -o "$out/bin/aheftbench" .)
exec "$out/bin/aheftbench" -daemon "$out/bin/aheftd" -work "$out/run" "$@"
