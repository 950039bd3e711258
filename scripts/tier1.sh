#!/bin/sh
# Tier-1 suite, run twice: with the default BLAS threads and with one
# OpenBLAS thread (the setting of sweep workers and of perfbench). Fails if
# either run fails. Extra arguments are passed to pytest.
#
#   scripts/tier1.sh            # from the repository root
cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
status=0
echo "== Tier-1, default BLAS threads"
python -m pytest -q --continue-on-collection-errors "$@" || status=1
echo "== Tier-1, OPENBLAS_NUM_THREADS=1"
OPENBLAS_NUM_THREADS=1 python -m pytest -q --continue-on-collection-errors "$@" || status=1
exit $status
