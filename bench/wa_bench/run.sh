#!/usr/bin/env bash
# Build wa_bench.exe from source, then run it with the given
# arguments (see README.md in this directory):
#   bash bench/wa_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the JSON result stays the
# last line of standard output; the dune cache is off, so the build
# writes only under _build.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/wa_bench/wa_bench.exe 1>&2
exec ./_build/default/bench/wa_bench/wa_bench.exe "$@"
