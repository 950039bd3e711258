#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs: a parent commit against the working tree.

    scripts/bench_pairs.py --parent HEAD --tag my_change \\
        --claim decoders_bitflip3:wall_rel --seed 0:10 --seed 7:1

Each side runs ``perfbench/run.py --workload W --seed S`` for the
benchmark's ``run_seconds`` (``BENCHMARK.json``) from its own copy, made
once in a temporary directory: the parent from a ``git archive`` of the
commit, the change from a snapshot of the working tree (the tracked and
untracked files git does not ignore). The benchmark's own files
(``perfbench/`` and ``BENCHMARK.json``) must not differ between the two and
must have no untracked files, so both sides are measured by the same
benchmark. Runs go one at a time. ``--seed S:N`` asks for N pairs on seed S; within a seed, pair k runs
the parent first when k is odd and the change first when k is even.

After every pair the script writes ``BENCH_<tag>.json`` at the repository
root: every run with its end-to-end metrics and failed rows, and per seed,
workload and metric both sides' medians, quartiles (numpy's linear
percentiles) and runs, the pairs the change won and lost, and a verdict:

- the claimed metric (``--claim WORKLOAD:METRIC``) is met on a seed when
  the change wins at least nine tenths of its pairs, ties counting for
  neither, the medians differ by more than the distance between the
  parent's quartiles, and the change's runs of that workload failed no
  more rows than the parent's; with fewer than ten pairs the seed only reports its
  wins;
- any other metric is ``worse`` when the change's median is worse than the
  parent's by more than its relative bound in ``BENCHMARK.json``,
  ``unresolved`` when the parent's own spread (interquartile range over
  median) is wider than that bound and some change run is not better than
  every parent run, and ``no worse`` otherwise.

Exit code 0 when every run finished, 1 when one failed (its output is kept
in the JSON), 2 on a usage error. Each perfbench run starts in its own
session; however the script ends, SIGTERM included, the run's process group
is killed and the temporary directory with both copies is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")
RUN_TIMEOUT_S = 3600


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _parent_tree(commit: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def _working_tree(dest: Path) -> None:
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _parse_seeds(texts: list[str]) -> list[tuple[int, int]]:
    plan = []
    for text in texts:
        seed, _, pairs = text.partition(":")
        plan.append((int(seed), int(pairs or 1)))
    return plan


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _scratch_dir():
    """A temporary directory, removed however the block ends: SIGTERM raises
    SystemExit while the block runs, so the cleanup of every enclosing
    ``finally`` (the runs' process groups first) runs too."""
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
            yield Path(tmp)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _communicate(argv: list[str], cwd: Path, timeout: float) -> tuple[int, str, str]:
    """Run argv in its own session and return its exit code, stdout and
    stderr. On any exit, a timeout or an exception included, the session's
    process group is killed, so no child or grandchild outlives the call."""
    proc = subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return proc.returncode, stdout, stderr


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: per workload its correct/attempted/failed/metrics."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    returncode, stdout, stderr = _communicate(argv, tree, RUN_TIMEOUT_S)
    results, environment, name = {}, None, None
    for line in stdout.splitlines():
        if line.startswith("environment "):
            environment = json.loads(line[len("environment "):])
        elif line.startswith("run "):
            name = line.split()[1]
        elif line.startswith("{") and name is not None:
            result = json.loads(line)
            results[name] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m: v["value"] for m, v in result["metrics"].items()},
            }
            name = None
    run = {"returncode": returncode, "environment": environment, "results": results}
    if returncode != 0 or not results:
        run["stderr_tail"] = stderr[-2000:]
    return run


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {
        "median": round(float(median), 6),
        "q1_q3": [round(float(q1), 6), round(float(q3), 6)],
        "runs": [round(v, 6) for v in values],
    }


def _compare(
    parent: list[float], change: list[float], lower_better: bool, bound: float,
    claimed: bool, failed: dict,
):
    """Pair wins, medians and the verdict for one metric of one seed;
    ``failed`` holds each side's failed rows on the workload."""
    sign = 1.0 if lower_better else -1.0
    better = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_stats, c_stats = _stats(parent), _stats(change)
    p_med, c_med = p_stats["median"], c_stats["median"]
    iqr = p_stats["q1_q3"][1] - p_stats["q1_q3"][0]
    out = {
        "parent": p_stats,
        "change": c_stats,
        "change_better_pairs": better,
        "change_worse_pairs": worse,
        "pairs": len(parent),
        "relative_change": round((c_med - p_med) / p_med, 4) if p_med else None,
        "parent_iqr_width": round(iqr, 6),
    }
    if claimed:
        if len(parent) >= 10:
            out["claim_met"] = bool(
                better >= 0.9 * len(parent)
                and sign * (p_med - c_med) > iqr
                and failed["change"] <= failed["parent"]
            )
        return out
    every_run_better = max(change) < min(parent) if lower_better else min(change) > max(parent)
    if sign * (c_med - p_med) > bound * abs(p_med):
        verdict = "worse"
    elif iqr > bound * abs(p_med) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    out["bound"] = bound
    out["verdict"] = verdict
    return out


def _summary(runs: list[dict], metrics: dict, claim: tuple[str, str] | None) -> dict:
    out = {}
    for seed in sorted({r["seed"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["seed"] == seed and r["results"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["results"]
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not complete:
            continue
        per_workload = {}
        for workload in complete[0]["parent"]:
            failed = {
                side: sum(p[side][workload]["failed"] for p in complete if workload in p[side])
                for side in ("parent", "change")
            }
            entry = {}
            for metric, (lower_better, bound) in metrics.items():
                values = [
                    (p["parent"][workload]["metrics"].get(metric), p["change"][workload]["metrics"].get(metric))
                    for p in complete
                    if workload in p["change"]
                ]
                values = [(a, b) for a, b in values if a is not None and b is not None]
                if values:
                    parent, change = map(list, zip(*values))
                    entry[metric] = _compare(
                        parent, change, lower_better, bound, claim == (workload, metric), failed
                    )
            entry["failed_rows"] = failed
            entry["attempted_rows"] = {
                side: sum(p[side][workload]["attempted"] for p in complete if workload in p[side])
                for side in ("parent", "change")
            }
            per_workload[workload] = entry
        out[f"seed {seed}"] = per_workload
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit of the parent side")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", action="append", default=None, metavar="SEED[:PAIRS]",
        help="PAIRS pairs on SEED (default 0:10); repeatable",
    )
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    try:
        plan = _parse_seeds(args.seed or ["0:10"])
    except ValueError:
        parser.error("--seed takes SEED or SEED:PAIRS, both integers")
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(benchmark["run_seconds"])
    metrics = {
        m["name"]: (m["better"] == "lower", float(m["bound"])) for m in benchmark["end_to_end"]
    }
    commit = _git("rev-parse", "--short", args.parent).strip()
    if _git("diff", "--name-only", commit, "--", *BENCHMARK_FILES).strip():
        print(f"{' and '.join(BENCHMARK_FILES)} differ from {commit}", file=sys.stderr)
        return 2
    if _git("ls-files", "--others", "--exclude-standard", "--", *BENCHMARK_FILES).strip():
        print(f"{' and '.join(BENCHMARK_FILES)} have untracked files", file=sys.stderr)
        return 2

    out_path = ROOT / f"BENCH_{args.tag}.json"
    record = {
        "tag": args.tag,
        "parent_commit": commit,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
        f"--seconds {seconds:g} --trace 0",
        "protocol": "each side runs from its own copy (parent: git archive of the commit; "
        "change: a snapshot of the working tree), one run at a time; within a seed, "
        "odd pairs run the parent first. Quartiles are numpy's linear percentiles.",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
        "claim": {"workload": claim[0], "metric": claim[1]} if claim else None,
        "runs": [],
    }
    status = 0
    with _scratch_dir() as tmp:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        for tree in trees.values():
            tree.mkdir()
        _parent_tree(commit, trees["parent"])
        _working_tree(trees["change"])
        for seed, count in plan:
            for k in range(1, count + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for position, side in enumerate(order):
                    run = _run(trees[side], args.workload, seed, seconds)
                    if run["returncode"] != 0 or not run["results"]:
                        status = 1
                    if record["host"].get("environment") is None and run["environment"]:
                        record["host"]["environment"] = run["environment"]
                    run.pop("environment")
                    record["runs"].append(
                        {"seed": seed, "pair": k, "side": side, "first": position == 0, **run}
                    )
                    short = {
                        w: r["metrics"].get("wall_rel") for w, r in run["results"].items()
                    }
                    print(f"seed {seed} pair {k} {side}: wall_rel {short}", flush=True)
                record["summary"] = _summary(record["runs"], metrics, claim)
                out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
