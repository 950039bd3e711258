#!/bin/sh
# Default sweeps of the three paper settings, as CSV: 101 points, all nine
# series, one OpenBLAS thread. Writes OUTDIR/bitflip3.csv, OUTDIR/lncy4.csv
# and OUTDIR/fivequbit.csv. Run it on two checkouts and compare the files
# with cmp or scripts/csv_moved_rows.py.
#
#   scripts/default_csvs.sh OUTDIR    # from any directory
if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
mkdir -p "$1" || exit 2
out=$(cd "$1" && pwd) || exit 2
cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1
status=0
for setting in bitflip3 lncy4 fivequbit; do
    cfg="$out/$setting.cfg"
    printf 'setting = %s\nout = %s\n' "$setting" "$out/$setting.csv" > "$cfg"
    python -m petzlab sweep --config "$cfg" || status=1
    rm -f "$cfg"
done
exit $status
