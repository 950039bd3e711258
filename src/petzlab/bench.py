"""Experiment runner: settings registry, sweeps, invariant audits, CSV output.

The CLI reproduces the decoder-comparison curve families as CSV data:

    petzlab sweep --config <file>
    petzlab audit --setting <name> --points <n>

Exit codes: 0 success, 2 invariant violation, 3 config error. The
environment variable ``PETZLAB_WORKERS`` overrides the configured worker
count; like the config key, it must be an integer >= 1 (else a config
error). CSV output is deterministic byte-for-byte for a fixed config;
measured wall times are written only when timing output is requested.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import multiprocessing
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import decoders, infomeasures, optdec, quantum
from .errors import ParseError, ValidationError
from .matcore import clamp_unit, matrix_power_on_support
from .quantum import (
    DensityOperator,
    KrausChannel,
    channel_on_purification,
    dilate,
    make_channel,
    make_code_source,
    purify,
)

DECODER_SERIES = ("sw", "petz", "twirled", "optimal", "none")
BOUND_SERIES = ("lower_sw", "lower_twirled", "upper_bk", "sw_original")

# The optimal-decoder series is skipped (flagged) when the variable of the
# largest SDP sector (optdec._sector_problems) would exceed this edge length.
SDP_DIM_LIMIT = 128

QUAD_TOL = 1e-9


@dataclass(frozen=True)
class Setting:
    """A named (code source, channel family) experiment."""

    name: str
    code: str
    channel_kind: str
    n_qubits: int

    def build(self, p: float) -> tuple[DensityOperator, KrausChannel]:
        rho = make_code_source(self.code)
        ch = make_channel(self.channel_kind, p, n=self.n_qubits)
        return rho, ch


SETTINGS = {
    "bitflip3": Setting("bitflip3", "bitflip3", "bitflip", 3),
    "lncy4": Setting("lncy4", "lncy4", "amplitude_damping", 4),
    "fivequbit": Setting("fivequbit", "fivequbit", "amplitude_damping", 5),
    "identity": Setting("identity", "bitflip3", "identity", 3),
}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep. The fields are the config file's keys, types and defaults.

    Every rule is checked on construction, so a config built in code is held
    to the same rules as a config file: a violation raises
    :class:`ValidationError` naming the field.
    """

    setting: str
    p_start: float = 0.0
    p_stop: float = 1.0
    p_count: int = 101
    decoders: tuple[str, ...] = DECODER_SERIES
    bounds: tuple[str, ...] = BOUND_SERIES
    tol: float = 1e-7
    out: str = "curves.csv"
    workers: int = 1

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValidationError("setting", f"unknown setting {self.setting!r}")
        for name in ("p_start", "p_stop"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(name, f"must be in [0, 1], got {value}")
        if self.p_stop < self.p_start:
            raise ValidationError("p_stop", "p_stop is smaller than p_start")
        _require_count("p_count", self.p_count)
        if self.p_stop == self.p_start and self.p_count != 1:
            raise ValidationError(
                "p_count", f"must be 1 when p_stop == p_start, got {self.p_count}"
            )
        for name, known in (("decoders", DECODER_SERIES), ("bounds", BOUND_SERIES)):
            series = tuple(getattr(self, name))
            object.__setattr__(self, name, series)
            for item in series:
                if item not in known:
                    raise ValidationError(name, f"unknown series {item!r}")
            if len(set(series)) != len(series):
                raise ValidationError(name, "repeated series")
        if not self.decoders and not self.bounds:
            raise ValidationError("decoders", "decoder and bound lists are both empty")
        if not self.tol > 0:
            raise ValidationError("tol", f"must be positive, got {self.tol}")
        if not self.tol < 1:
            raise ValidationError("tol", f"must be below 1, got {self.tol}")
        if not self.out:
            raise ValidationError("out", "output path is empty")
        _require_count("workers", self.workers)

    def grid(self) -> np.ndarray:
        if self.p_count == 1:
            return np.array([self.p_start])
        return np.linspace(self.p_start, self.p_stop, self.p_count)


@dataclass(frozen=True)
class CurvePoint:
    setting: str
    p: float
    series: str
    value: float
    seconds: float
    flags: str


def _require_count(name: str, value) -> None:
    """Check that ``value``, given as ``name``, is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(name, f"not an integer: {value!r}")
    if value < 1:
        raise ValidationError(name, f"must be >= 1, got {value}")


def _parse_value(name: str, kind: str, text: str):
    """Convert config text to a value of the annotation ``kind``. A series
    list is comma-separated; empty items are dropped."""
    if kind == "str":
        return text
    if kind == "tuple[str, ...]":
        return tuple(s.strip() for s in text.split(",") if s.strip())
    number, noun = (float, "a number") if kind == "float" else (int, "an integer")
    try:
        return number(text)
    except ValueError:
        raise ValidationError(name, f"not {noun}: {text!r}") from None


def parse_config(text: str) -> SweepConfig:
    """Parse the flat ``key = value`` sweep-config format.

    Blank lines and ``#`` comments are ignored. The keys are the fields of
    :class:`SweepConfig`, each value converted by its field's type. Unknown,
    duplicated and missing required keys are errors, and the values are held
    to the rules of :class:`SweepConfig`.
    """
    keys = {f.name: f for f in fields(SweepConfig)}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("missing key before '='", lineno, 1)
        if key not in keys:
            raise ValidationError(key, "unknown config key")
        if key in raw:
            raise ValidationError(key, "duplicated config key")
        raw[key] = value
    for f in keys.values():
        if f.default is MISSING and f.name not in raw:
            raise ValidationError(f.name, "required key is missing")
    return SweepConfig(**{k: _parse_value(k, keys[k].type, v) for k, v in raw.items()})


def _series_values(setting: str, p: float, wanted: tuple[str, ...], tol: float):
    """Compute all requested series at one grid point.

    No exception escapes: a failing series becomes a row flagged
    ``error:<Type>``, and a failure in the shared per-point set-up flags
    every series at that point. The Petz and twirled fidelities and the
    lower_sw and upper_bk bounds are clamped to [0, 1] by
    :func:`~petzlab.matcore.clamp_unit`, which flags a NaN as
    ``error:NonFinite``; lower_twirled is 2^(-epsilon_sw) as computed.
    """
    try:
        rho, ch = SETTINGS[setting].build(p)
        pur = purify(rho)
        sigma_rb = channel_on_purification(pur, ch)
        kernel = decoders.RotatedFidelity(sigma_rb)
        sigma_r = sigma_rb.marginal("R")
    except Exception as exc:  # a lost point is a flagged row, never an aborted sweep
        flags = f"error:{type(exc).__name__}"
        return [CurvePoint(setting, p, series, math.nan, 0.0, flags) for series in wanted]
    # Shared by lower_twirled and sw_original; computed on first use.
    epsilon = functools.cache(lambda: infomeasures.epsilon_sw(sigma_rb))

    out: list[CurvePoint] = []
    for series in wanted:
        start = time.perf_counter()
        flags = "ok"
        try:
            if series == "petz":
                value = clamp_unit(kernel.petz())
            elif series == "twirled":
                value = clamp_unit(kernel.twirled(QUAD_TOL))
            elif series == "sw":
                dec, _ = decoders.build_sw(rho, ch)
                value = decoders.fe_of_decoder(rho, ch, dec)
            elif series == "none":
                value = decoders.fe_of_decoder(
                    rho, ch, decoders.identity_decoder(rho.dim)
                )
            elif series == "optimal":
                problems = optdec._sector_problems(rho, ch)
                largest = max(prob.dim for prob in problems)
                if largest > SDP_DIM_LIMIT:
                    out.append(
                        CurvePoint(
                            setting,
                            p,
                            series,
                            math.nan,
                            time.perf_counter() - start,
                            f"skipped:sdp_dim_{largest}",
                        )
                    )
                    continue
                value, _ = optdec._solve_sectors(problems, tol)
            elif series == "lower_sw":
                w_r = matrix_power_on_support(sigma_r, -1.0)
                value = clamp_unit(2.0 ** infomeasures.min_petz_mi_order2(sigma_rb, w_r))
            elif series == "lower_twirled":
                value = 2.0 ** (-epsilon())
            elif series == "upper_bk":
                value = clamp_unit(math.sqrt(kernel.petz()))
            elif series == "sw_original":
                value = infomeasures.sw_original_bound(max(0.0, epsilon()))
            else:
                raise ValidationError("series", f"unknown series {series!r}")
        except Exception as exc:  # contained per (point, series); see the docstring
            value = math.nan
            flags = f"error:{type(exc).__name__}"
        out.append(
            CurvePoint(setting, p, series, value, time.perf_counter() - start, flags)
        )
    return out


def _worker(args) -> list[CurvePoint]:
    return _series_values(*args)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Process pool whose workers run BLAS on one thread.

    The workers are spawned (not forked) while every variable of
    ``_BLAS_THREAD_VARS`` is 1, so each imports numpy with a one-thread BLAS;
    ``workers`` multi-threaded BLAS pools would oversubscribe the cores. The
    caller's environment is restored when the pool has shut down.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_sweep(cfg: SweepConfig) -> list[CurvePoint]:
    """Evaluate every requested series on the p-grid.

    Grid points are independent work items; results are collected in
    deterministic order regardless of completion order, and a failing
    point is recorded with its error, never dropped. ``PETZLAB_WORKERS``
    overrides ``cfg.workers`` and is held to the same rule: a value that is
    not an integer >= 1 raises :class:`ValidationError`. More than one worker
    runs the points in a :func:`_worker_pool`, one BLAS thread per worker.
    """
    wanted = cfg.decoders + cfg.bounds
    workers = cfg.workers
    env_workers = os.environ.get("PETZLAB_WORKERS")
    if env_workers is not None:
        workers = _parse_value("PETZLAB_WORKERS", "int", env_workers)
        _require_count("PETZLAB_WORKERS", workers)
    jobs = [(cfg.setting, float(p), wanted, cfg.tol) for p in cfg.grid()]
    if workers > 1 and len(jobs) > 1:
        with _worker_pool(workers) as pool:
            chunks = list(pool.map(_worker, jobs))
    else:
        chunks = [_worker(job) for job in jobs]
    return [point for chunk in chunks for point in chunk]


def emit_csv(points, path, timing: bool = False) -> None:
    """Write curve points as CSV, sorted by (setting, series, p).

    Columns: setting,p,series,value,seconds,flags; UTF-8, LF line endings,
    12 significant digits. The seconds column is zeroed unless ``timing``
    is set, keeping default output byte-deterministic across runs.
    """
    rows = sorted(points, key=lambda c: (c.setting, c.series, c.p))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("setting,p,series,value,seconds,flags\n")
        for c in rows:
            seconds = c.seconds if timing else 0.0
            fh.write(
                f"{c.setting},{c.p:.12g},{c.series},{c.value:.12g},"
                f"{seconds:.12g},{c.flags}\n"
            )


@dataclass(frozen=True)
class AuditRow:
    setting: str
    p: float
    check: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.passed]


THM2_TOL = 1e-8
CHAIN_TOL = 1e-8
BK_TOL = 1e-6
BETA0_TOL = 1e-10


def _complementary_petz(rho: DensityOperator, ch: KrausChannel) -> float:
    """2^(-I_1/2(R;E)), the singly minimized Petz Renyi mutual information of
    sigma_RE taken on the environment of :func:`~petzlab.quantum.dilate` with
    one slot per Kraus operator (no d_A*d_B padding)."""
    comp = quantum._environment_channel(dilate(ch, 1), ch.label_in)
    sigma_re = channel_on_purification(purify(rho), comp)
    return 2.0 ** -infomeasures.singly_min_petz_mi_half(sigma_re)


def audit_invariants(setting: str, points: int = 21, include_sdp: bool = True) -> AuditReport:
    """Per-point checks of the closed-form and inequality-chain guarantees.

    Each grid point is evaluated by the sweep itself (:func:`_series_values`
    at the default solve tolerance), for the series the checks read. Checks,
    per grid point: the Petz closed form against simulation (``build_petz``
    then ``fe_of_decoder``), the Petz >= twirled >= 2^(-eps) chain, the
    SW >= 2^I >= 2^(-eps) chain, and (optionally) the optimality bracket
    optimal^2 - BK_TOL <= petz <= optimal + BK_TOL; plus one normalization
    check of the beta0 quadrature. The paper's identity F_e(Petz) =
    2^(-I_1/2(R;E)) is checked on the same simulation (``thm_complementary``).
    A series that raises gives a failing row flagged ``error:<Type>``, and the
    checks that read its NaN value fail; a simulation that raises fails both
    rows it feeds. A skipped SDP gives no bracket row. The setting and
    ``points`` (the grid's ``p_count`` on [0, 1]) are held to the rules of
    :class:`SweepConfig`.
    """
    cfg = SweepConfig(setting, p_count=points)
    rows: list[AuditRow] = []
    norm = decoders.beta0_quadrature(lambda t: 1.0, 1e-12)
    rows.append(
        AuditRow(
            setting,
            math.nan,
            "beta0_normalization",
            abs(norm - 1.0) <= BETA0_TOL,
            f"integral={norm:.15g}",
        )
    )
    wanted = ("petz", "twirled", "sw", "lower_sw", "lower_twirled")
    wanted += ("optimal",) if include_sdp else ()
    for p in cfg.grid():
        p = float(p)
        curve = _series_values(setting, p, wanted, cfg.tol)
        v = {c.series: c.value for c in curve}
        skipped = {c.series for c in curve if c.flags.startswith("skipped")}
        checks = [(c.series, False, c.flags) for c in curve if c.flags.startswith("error")]
        try:
            rho, ch = SETTINGS[setting].build(p)
            f_sim = decoders.fe_of_decoder(rho, ch, decoders.build_petz(rho, ch))
            f_comp = _complementary_petz(rho, ch)
            error = None
        except Exception as exc:  # contained like a sweep row
            f_sim = f_comp = math.nan
            error = f"error:{type(exc).__name__}"
        closed_forms = {"thm2_petz_closed_form": v["petz"], "thm_complementary": f_comp}
        for name, value in closed_forms.items():
            detail = error or f"|{f_sim:.12g} - {value:.12g}|"
            checks.append((name, abs(f_sim - value) <= THM2_TOL, detail))

        petz, twirled, lower = v["petz"], v["twirled"], v["lower_twirled"]
        checks.append(
            (
                "cor2c_chain",
                petz >= twirled - CHAIN_TOL and twirled >= lower - CHAIN_TOL,
                f"{petz:.12g} >= {twirled:.12g} >= {lower:.12g}",
            )
        )
        sw, lower_sw = v["sw"], v["lower_sw"]
        checks.append(
            (
                "cor1b_chain",
                sw >= lower_sw - CHAIN_TOL and lower_sw >= lower - CHAIN_TOL,
                f"{sw:.12g} >= {lower_sw:.12g} >= {lower:.12g}",
            )
        )
        if include_sdp and "optimal" not in skipped:
            opt = v["optimal"]
            checks.append(
                (
                    "bk_bracket",
                    opt**2 - BK_TOL <= petz <= opt + BK_TOL,
                    f"{opt**2:.12g} <= {petz:.12g} <= {opt:.12g}",
                )
            )
        rows.extend(AuditRow(setting, p, *check) for check in checks)
    return AuditReport(rows=tuple(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="petzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    sweep_p.add_argument("--config", required=True, help="path to a sweep config file")
    sweep_p.add_argument(
        "--timing", action="store_true", help="write measured wall times to the CSV"
    )

    audit_p = sub.add_parser("audit", help="run per-point invariant checks")
    audit_p.add_argument("--setting", required=True, help="setting name")
    audit_p.add_argument("--points", type=int, default=21, help="grid size")
    audit_p.add_argument(
        "--no-sdp", action="store_true", help="skip the optimality-bracket check"
    )

    args = parser.parse_args(argv)

    if args.command == "sweep":
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except (OSError, ParseError, ValidationError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 3
        try:
            points = run_sweep(cfg)
        except ValidationError as exc:  # a bad PETZLAB_WORKERS
            print(f"config error: {exc}", file=sys.stderr)
            return 3
        emit_csv(points, cfg.out, timing=args.timing)
        errored = [c for c in points if c.flags.startswith("error")]
        for c in errored:
            print(f"point failed: {c.setting} p={c.p} {c.series}: {c.flags}", file=sys.stderr)
        print(f"wrote {len(points)} points to {cfg.out}")
        return 0

    try:
        report = audit_invariants(args.setting, args.points, include_sdp=not args.no_sdp)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        p_str = "-" if math.isnan(row.p) else f"{row.p:.4g}"
        print(f"[{status}] {row.setting} p={p_str} {row.check}: {row.detail}")
    if not report.ok:
        print(f"{len(report.failures())} invariant violations", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
