#!/bin/sh
# Build the session benchmark from source and run it.  Arguments pass
# through to run.exe (see benchmark/README.md), e.g.
#   sh benchmark/run.sh --workload gmw --seed 3 --seconds 10 --trace 0
set -e
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout: dune's shared cache
# lives in the user's home directory.
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
