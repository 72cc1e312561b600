#!/usr/bin/env bash
# Build the pipeline benchmark and the legoc daemon from source, then run
# one workload (or --all, or --selfcheck).  Run from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays inside the checkout: dune's _build/ and the
# benchmark's scratch directory .perfbench_out/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" \
       "(dune-project, lib/, bin/ and perfbench/ expected)" >&2
  exit 2
fi

# Keep dune's shared cache out of the picture: builds stay in _build/.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/pipebench.exe ./bin/legoc.exe 1>&2

# Provenance: the git commit when there is one, else a digest of the
# sources the benchmark builds.
commit=""
if git rev-parse --git-dir >/dev/null 2>&1; then
  commit=$(git rev-parse --short=12 HEAD 2>/dev/null || true)
  if [ -n "$commit" ] && [ -n "$(git status --porcelain -- lib bin perfbench 2>/dev/null)" ]; then
    commit="$commit-dirty"
  fi
fi
if [ -z "$commit" ]; then
  commit="src-$(find lib bin perfbench dune-project -type f \( -name '*.ml' -o -name '*.mli' -o -name dune -o -name dune-project \) \
    | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)"
fi

export PERFBENCH_COMMIT="$commit"
exec ./_build/default/perfbench/pipebench.exe "$@"
