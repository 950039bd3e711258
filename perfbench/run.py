"""Curve-sweep benchmark for petzlab.

    python3 perfbench/run.py --workload sweep_lncy4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root. The benchmark imports petzlab from ``src/``;
without it, it exits with a non-zero code and prints no result. Each run:

1. measures ``setup_s`` in fresh processes (import petzlab, build the
   workload's first source and channel), median of several taken at the
   start, the middle and the end of the run;
2. repeats full passes over the workload until ``--seconds`` have elapsed.
   Pass k draws its p values from (seed, k); the default seed 0 always
   gives the evenly spaced grid. A fixed numpy probe (``probe_times``)
   runs before the first pass and after each one, and ``wall_rel`` is the
   pass time over the probe time. With ``--trace 1`` every pass is run
   twice on the pass-0 inputs, untraced and then traced, and the result
   holds the per-layer metrics instead of the end-to-end ones;
3. checks every row of every pass (see ``workloads.check``);
4. prints the environment, each metric with its unit, and as the last line
   one JSON object: correct, attempted, failed, metrics.

Spans of the first traced pass and the CSVs go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# BLAS threads for the benchmark and its child processes, capped at nproc.
# On 2 cores, two threads made fivequbit points about 17% faster with no
# steadier figures, and leave no core for anything else running; fresh
# bitflip3 sweeps with two threads have shown SW points 60x slower.
BLAS_THREADS = 1
SETUP_REPEATS = 9
# setup_s samples come in three groups, at the start, middle and end of a
# run: the host's speed drifts over tens of seconds, and samples taken in
# one burst all share the speed of that moment.
SETUP_PER_GROUP = 3
PROBE_SEED = 20250224
PROBE_REPEATS = 5
WORKLOAD_NAMES = ("sweep_lncy4", "sweep_fivequbit", "decoders_bitflip3")

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import petzlab
rho = petzlab.make_code_source(sys.argv[2])
ch = petzlab.make_channel(sys.argv[3], float(sys.argv[4]), n=int(sys.argv[5]))
print(repr(time.perf_counter() - start))
"""


def _configure_environment() -> None:
    """Pin BLAS threads and workers=1 before numpy is first imported."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PETZLAB_WORKERS"] = "1"


def _import_program() -> None:
    """Import petzlab from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import petzlab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import petzlab from {SRC}: {exc}") from exc
    if Path(petzlab.__file__).resolve().parent != SRC / "petzlab":
        raise SystemExit(f"perfbench: petzlab imported from {petzlab.__file__}, not {SRC}")


def _blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
    }


def measure_setup(setting, p: float, repeats: int) -> list[float]:
    """Seconds from `import petzlab` to the first (source, channel), fresh processes."""
    argv = [
        sys.executable, "-c", SETUP_CODE, str(SRC),
        setting.code, setting.channel_kind, repr(p), str(setting.n_qubits),
    ]
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _probe_matrices(wl):
    """Eight random Hermitian matrices of each size the workload's probe uses,
    fixed by PROBE_SEED."""
    import numpy as np

    rng = np.random.default_rng(PROBE_SEED)
    mats = {}
    for n in (32, 8) if wl.probe_overhead else (32,):
        a = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
        mats[n] = a + a.conj().transpose(0, 2, 1)
    return mats


def probe_times(mats) -> list[float]:
    """Seconds of a fixed piece of numpy work, PROBE_REPEATS times.

    The work is independent of petzlab and shaped like its inner loops:
    eighs and products of 32x32 matrices, whose time is mostly LAPACK, and
    eighs, krons and traces of 8x8 ones, whose time is mostly numpy's call
    overhead (left out for workloads with ``probe_overhead`` off). Its time
    tracks the speed the shared host gives this process.
    """
    import numpy as np

    eye2 = np.eye(2)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(15):
            for m in mats[32]:
                w, v = np.linalg.eigh(m)
                (v * w) @ v.conj().T
        for _ in range(40):
            for m in mats.get(8, ()):
                w, v = np.linalg.eigh(m)
                x = np.kron((v * w) @ v.conj().T, eye2)
                np.einsum("ij,ji->", x, x.conj())
        times.append(time.perf_counter() - start)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Gate:
    """Checks each pass as soon as it is timed and keeps only the counts, so
    that memory does not grow with the number of passes."""

    def __init__(self, wl, reference):
        self.wl, self.reference = wl, reference
        self.attempted, self.failed, self.problems = 0, 0, []

    def __call__(self, label: str, run) -> None:
        from workloads import check

        failed, problems = check(self.wl, run, self.reference)
        self.attempted += len(run.rows)
        self.failed += failed
        self.problems.extend(f"{label}: {m}" for m in problems)


def best_wall_s(parts: list[list[float]]) -> float:
    """Time of one full pass at the fastest the machine ran: each part of a
    pass (one row, or the rest of the pass) at its minimum over the passes,
    summed. ``parts`` holds one ``Pass.parts_s()`` per pass."""
    return sum(min(part) for part in zip(*parts))


def run_untraced(wl, seed: int, seconds: float, gate: Gate, setup):
    """End-to-end metrics; ``setup(n)`` measures set-up n times."""
    from workloads import inputs, run_pass

    walls, point_s, parts = [], [], []
    setup_s = setup(SETUP_PER_GROUP)
    mats = _probe_matrices(wl)
    probes = probe_times(mats)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        k = len(walls)
        run = run_pass(wl, inputs(wl, seed, k), OUT / f"{wl.name}-pass{k}.csv")
        gate(f"pass {k}", run)
        walls.append(run.wall_s)
        point_s.extend(run.point_s)
        parts.append(run.parts_s())
        probes.extend(probe_times(mats))
        if len(setup_s) < 2 * SETUP_PER_GROUP and time.perf_counter() - start >= seconds / 2:
            setup_s += setup(SETUP_PER_GROUP)
    setup_s += setup(SETUP_REPEATS - len(setup_s))
    # A shared host's CPU speed drifts by up to half, for seconds within a
    # run and for minutes across runs, whatever the process does. wall_s
    # takes each part of a pass at its fastest over the passes (see
    # best_wall_s), and wall_rel divides it by the fastest probe of the same
    # run, which cancels the drift across runs.
    wall_s = best_wall_s(parts)
    probe_s = min(probes)
    info = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "pass_wall_s": walls,
        "pass_wall_s_p50": statistics.median(walls),
        "point_s_p50": statistics.median(point_s),
        "point_samples": len(point_s),
    }
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "wall_rel": _metric(wall_s / probe_s, "probe"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, info


def run_traced(wl, seed: int, seconds: float, gate: Gate):
    from petzlab import bench
    from spans import Tracer, install
    from workloads import inputs, run_pass

    all_series = bench.DECODER_SERIES + bench.BOUND_SERIES
    ps = inputs(wl, seed, 0)
    plain_walls, traced_walls, csv_s, series_s, summaries = [], [], [], [], []
    plain_parts = []
    mats = _probe_matrices(wl)
    probes = probe_times(mats)
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        k = len(summaries)
        plain = run_pass(wl, ps, OUT / f"{wl.name}-plain{k}.csv")
        gate(f"untraced pass {k}", plain)
        plain_walls.append(plain.wall_s)
        plain_parts.append(plain.parts_s())
        probes.extend(probe_times(mats))
        csv_s.append(plain.csv_s)
        series_s.append({s: plain.series_s(s) for s in all_series})
        tracer = Tracer()
        restore = install(tracer)
        try:
            traced = run_pass(wl, ps, OUT / f"{wl.name}-traced{k}.csv")
        finally:
            restore()
        gate(f"traced pass {k}", traced)
        traced_walls.append(traced.wall_s)
        summaries.append(tracer.summary())
        if k == 0:
            tracer.write(OUT / f"{wl.name}-spans.csv")

    first = summaries[0]
    metrics = {}
    for name, entry in first.items():
        metrics[f"{name}.calls"] = _metric(entry["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(s[name]["self_s"] for s in summaries), "s"
        )
    dims = first["matcore.herm_eig"]["data"]
    metrics["matcore.herm_eig.dim_max"] = _metric(max(dims, default=0), "dim")
    metrics["matcore.herm_eig.dim3_sum"] = _metric(sum(d**3 for d in dims), "dim3")
    envs = first["quantum.stinespring_dilation"]["data"]
    metrics["quantum.stinespring_dilation.dim_env_max"] = _metric(max(envs, default=0), "dim")
    sdp = first["optdec.solve_sdp"]["data"]
    iterations = sum(it for it, _, _ in sdp)
    per_iter = [
        s["optdec.solve_sdp"]["total_s"] / iterations if iterations else 0.0 for s in summaries
    ]
    metrics["optdec.solve_sdp.iterations"] = _metric(iterations, "count")
    metrics["optdec.solve_sdp.s_per_iter"] = _metric(statistics.median(per_iter), "s")
    metrics["optdec.solve_sdp.dim_max"] = _metric(max((d for _, _, d in sdp), default=0), "dim")
    metrics["optdec.solve_sdp.gap_max"] = _metric(max((g for _, g, _ in sdp), default=0.0), "1")
    for series in all_series:
        value = statistics.median(sums[series] for sums in series_s)
        metrics[f"bench.series.{series}.s"] = _metric(value, "s")
    metrics["bench.emit_csv.s"] = _metric(statistics.median(csv_s), "s")
    metrics["bench.wall_s"] = _metric(best_wall_s(plain_parts), "s")
    metrics["bench.probe_s"] = _metric(min(probes), "s")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    info = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics, info


def run_one(args) -> int:
    from petzlab import bench
    from workloads import DEFAULT_SEED, WORKLOADS, inputs, load_reference

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob(f"{wl.name}-*"):
        stale.unlink()
    print("environment " + json.dumps(environment()), flush=True)

    gate = Gate(wl, load_reference()[wl.name] if args.seed == DEFAULT_SEED else None)
    if args.trace:
        metrics, info = run_traced(wl, args.seed, args.seconds, gate)
    else:
        setting, p = bench.SETTINGS[wl.settings[0]], inputs(wl, args.seed, 0)[0]
        setup = functools.partial(measure_setup, setting, p)
        metrics, info = run_untraced(wl, args.seed, args.seconds, gate, setup)

    for message in gate.problems[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    info["failed_share"] = gate.failed / gate.attempted
    print(f"run {wl.name} seed={args.seed} trace={args.trace} " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_share = {gate.failed}/{gate.attempted} rows")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print their results and a total."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _configure_environment()
    _import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
