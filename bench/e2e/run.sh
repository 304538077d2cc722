#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the given
# arguments (see bench/e2e/README.md).  Build output goes to stderr, so the
# last line on stdout is the run's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
# Spill files and any other temporaries stay inside the checkout.
export TMPDIR="$root/.e2e-tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
