#!/usr/bin/env bash
# Build edsd and the benchmark program from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/edsd.ml ]; then
  echo "perfbench: needs a full source checkout (dune-project, bin/edsd.ml)" >&2
  exit 2
fi
if command -v dune > /dev/null; then dune=(dune); else dune=(opam exec -- dune); fi
# no shared build cache: the build writes only inside the checkout
DUNE_CACHE=disabled "${dune[@]}" build --root . -j 2 bin/edsd.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --edsd ./_build/default/bin/edsd.exe "$@"
