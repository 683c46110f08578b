#!/usr/bin/env bash
# Builds the benchmark and the vp binary from source, then runs the
# benchmark with the given arguments (see perfbench/main.ml):
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# No shared build cache: everything the build writes stays in _build.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
