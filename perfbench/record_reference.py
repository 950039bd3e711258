"""Record the default-seed reference values that the correctness gate compares against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each workload, every row of one
pass over the default-seed grid as [setting, p, series, value]. Run it only
on a commit whose outputs are known to be right; the gate then holds later
commits to these values within ``workloads.REFERENCE_TOL``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    run._configure_environment()
    run._import_program()
    from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS, check, inputs, run_pass

    data = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name, wl in WORKLOADS.items():
            one = run_pass(wl, inputs(wl, DEFAULT_SEED, 0), Path(tmp) / f"{name}.csv")
            failed, problems = check(wl, one, None)
            if failed:
                raise SystemExit(f"{name}: outputs fail the gate: {problems[:5]}")
            data[name] = [[r.setting, r.p, r.series, r.value] for r in one.rows]
            print(f"{name}: {len(one.rows)} rows")
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n]"
        for name, rows in data.items()
    ]
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
