#!/usr/bin/env bash
# Builds the benchmark and the wet binary from source, then runs one
# workload; run from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr: the last line of stdout is the result.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/wet_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --wet-cli ./_build/default/bin/wet_cli.exe "$@"
