#!/usr/bin/env bash
# Build the suite from source and run one workload:
#
#   bash bench/suite/bench.sh --workload tpch-resident --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. The last line of stdout is the run's
# JSON result; build output goes to stderr.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/suite/dune ]; then
  echo "bench/suite/bench.sh: run from the root of a full checkout" >&2
  exit 2
fi

# The program reads CGQP_* knobs (engine, memory budget, template cache,
# seed); the benchmark runs without any of them.
for v in $(compgen -e); do
  case "$v" in CGQP_*) unset "$v" ;; esac
done

dune build --root . --cache=disabled --display=quiet ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$@"
