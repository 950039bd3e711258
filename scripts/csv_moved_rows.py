#!/usr/bin/env python3
"""List the rows of two sweep CSVs whose value or flags differ.

    python3 scripts/csv_moved_rows.py PARENT.csv CHANGE.csv

Rows are matched on (setting, p, series); the seconds column is ignored.
Each moved row prints as ``setting p series |delta|``, followed by both
flags when they differ. The exit status is 1 if a row other than an
``optimal`` one moved, if any flags changed, or if a row is in only one of
the files, and 0 otherwise.
"""

from __future__ import annotations

import csv
import sys


def read_rows(path: str) -> dict[tuple[str, str, str], tuple[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            (row["setting"], row["p"], row["series"]): (row["value"], row["flags"])
            for row in csv.DictReader(fh)
        }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (read_rows(path) for path in argv)
    status = 0
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{' '.join(key)} only in {argv[0] if key in old else argv[1]}")
        status = 1
    moved = 0
    for key in sorted(old.keys() & new.keys(), key=lambda k: (k[0], k[2], float(k[1]))):
        (old_value, old_flags), (new_value, new_flags) = old[key], new[key]
        if (old_value, old_flags) == (new_value, new_flags):
            continue
        moved += 1
        setting, p, series = key
        line = f"{setting} {p} {series} {abs(float(new_value) - float(old_value)):.3g}"
        if old_flags != new_flags:
            line += f" flags {old_flags} -> {new_flags}"
            status = 1
        elif series != "optimal":
            status = 1
        print(line)
    print(f"{moved} of {len(old.keys() & new.keys())} rows moved")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
