#!/usr/bin/env bash
# Build the gpgs CLI and the harness from source, then run the harness:
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root; the last stdout line is the JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/gpgs.exe ./servebench/main.exe 1>&2 || exit 2
exec ./_build/default/servebench/main.exe "$@"
