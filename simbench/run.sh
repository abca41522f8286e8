#!/bin/sh
# Builds the benchmark from the checkout's sources, then runs it:
#   sh simbench/run.sh --workload <pingpong|umt64|serve_ft> --seed N \
#     --seconds S --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
DUNE_CACHE=disabled dune build --root "$root" ./simbench/main.exe 1>&2
exec "$root/_build/default/simbench/main.exe" "$@"
