import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import petzlab
from petzlab import bench, decoders, infomeasures, matcore, optdec, quantum
from petzlab.bench import (
    BOUND_SERIES,
    DECODER_SERIES,
    AuditReport,
    CurvePoint,
    SweepConfig,
    audit_invariants,
    emit_csv,
    main,
    parse_config,
    run_sweep,
)
from petzlab.errors import NonFinite, NotTracePreserving, ParseError, ValidationError
from petzlab.quantum import KrausChannel, make_channel, validate_cptp


MINIMAL = "setting = bitflip3\n"


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.setting == "bitflip3"
    assert cfg.p_count == 101
    assert cfg.decoders == ("sw", "petz", "twirled", "optimal", "none")
    assert cfg.bounds == ("lower_sw", "lower_twirled", "upper_bk", "sw_original")
    assert cfg.tol == 1e-7
    assert cfg.workers == 1


def test_parse_full_config():
    text = """
    # comment line
    setting = lncy4
    p_start = 0.1
    p_stop = 0.4
    p_count = 4
    decoders = sw,petz
    bounds = upper_bk
    tol = 1e-8
    out = out.csv
    workers = 2
    """
    cfg = parse_config(text)
    assert cfg.setting == "lncy4"
    assert cfg.decoders == ("sw", "petz")
    assert len(cfg.decoders) == 2
    assert cfg.bounds == ("upper_bk",)
    assert np.allclose(cfg.grid(), [0.1, 0.2, 0.3, 0.4])


def test_parse_rejects_reversed_range():
    with pytest.raises(ValidationError) as err:
        parse_config("setting = bitflip3\np_start = 0.5\np_stop = 0.1\n")
    assert err.value.field == "p_stop"


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_config("setting = bitflip3\ncolor = red\n")
    assert err.value.field == "color"


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValidationError):
        parse_config("setting = bitflip3\nsetting = lncy4\n")


def test_parse_rejects_unknown_setting():
    with pytest.raises(ValidationError):
        parse_config("setting = nosuch\n")


def test_parse_rejects_unknown_series():
    with pytest.raises(ValidationError):
        parse_config("setting = bitflip3\ndecoders = sw,magic\n")


def test_parse_rejects_empty_series_lists():
    with pytest.raises(ValidationError):
        parse_config("setting = bitflip3\ndecoders =\nbounds =\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config("setting = bitflip3\nnonsense line\n")
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_rejects_bad_number():
    with pytest.raises(ValidationError) as err:
        parse_config("setting = bitflip3\ntol = fast\n")
    assert err.value.field == "tol"


# -- CSV ------------------------------------------------------------------------


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_bytes() == b"setting,p,series,value,seconds,flags\n"


def test_emit_csv_single_point_deterministic(tmp_path):
    point = CurvePoint("bitflip3", 0.25, "petz", 0.7589285714285713, 1.23, "ok")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([point], a)
    emit_csv([point], b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "bitflip3,0.25,petz,0.758928571429,0,ok"


def test_emit_csv_sorted_and_lf(tmp_path):
    points = [
        CurvePoint("b", 0.5, "petz", 0.5, 0.0, "ok"),
        CurvePoint("a", 0.5, "sw", 0.5, 0.0, "ok"),
        CurvePoint("a", 0.1, "sw", 0.9, 0.0, "ok"),
    ]
    path = tmp_path / "sorted.csv"
    emit_csv(points, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert [l.split(",")[0:3] for l in lines[1:]] == [
        ["a", "0.1", "sw"],
        ["a", "0.5", "sw"],
        ["b", "0.5", "petz"],
    ]


def test_emit_csv_timing_flag(tmp_path):
    point = CurvePoint("bitflip3", 0.0, "petz", 1.0, 0.125, "ok")
    path = tmp_path / "t.csv"
    emit_csv([point], path, timing=True)
    assert path.read_text().splitlines()[1].split(",")[4] == "0.125"


# -- sweeps ----------------------------------------------------------------------


def _tiny_config(tmp_path, workers=1):
    return SweepConfig(
        setting="bitflip3",
        p_start=0.0,
        p_stop=0.5,
        p_count=3,
        decoders=("petz", "none"),
        bounds=("upper_bk", "lower_twirled"),
        tol=1e-7,
        out=str(tmp_path / "sweep.csv"),
        workers=workers,
    )


def test_run_sweep_values(tmp_path):
    points = run_sweep(_tiny_config(tmp_path))
    by_key = {(c.series, round(c.p, 6)): c for c in points}
    assert by_key[("petz", 0.0)].value == pytest.approx(1.0, abs=1e-9)
    assert by_key[("none", 0.0)].value == pytest.approx(1.0, abs=1e-9)
    # upper bound dominates the fidelity pointwise
    for p in (0.0, 0.25, 0.5):
        petz = by_key[("petz", p)].value
        assert by_key[("upper_bk", p)].value == pytest.approx(math.sqrt(petz))
        assert by_key[("lower_twirled", p)].value <= petz + 1e-9
    assert all(c.flags == "ok" for c in points)


def test_sweep_determinism_bytes(tmp_path):
    cfg = _tiny_config(tmp_path)
    emit_csv(run_sweep(cfg), cfg.out)
    first = open(cfg.out, "rb").read()
    emit_csv(run_sweep(cfg), cfg.out)
    assert open(cfg.out, "rb").read() == first


def test_sweep_worker_count_does_not_change_values(tmp_path):
    serial = run_sweep(_tiny_config(tmp_path, workers=1))
    parallel = run_sweep(_tiny_config(tmp_path, workers=2))
    key = lambda c: (c.setting, c.series, c.p)
    for a, b in zip(sorted(serial, key=key), sorted(parallel, key=key)):
        assert a.value == pytest.approx(b.value, abs=1e-12)


def test_bitflip3_petz_equals_twirled_pointwise(tmp_path):
    cfg = SweepConfig(
        setting="bitflip3",
        p_start=0.0,
        p_stop=1.0,
        p_count=5,
        decoders=("petz", "twirled"),
        bounds=(),
        tol=1e-7,
        out=str(tmp_path / "pt.csv"),
    )
    points = run_sweep(cfg)
    by_key = {(c.series, round(c.p, 6)) : c.value for c in points}
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(by_key[("petz", p)] - by_key[("twirled", p)]) <= 1e-8


# -- failure containment ----------------------------------------------------------


def _all_series_config(tmp_path):
    return SweepConfig(
        setting="bitflip3",
        p_start=0.25,
        p_stop=0.75,
        p_count=2,
        decoders=DECODER_SERIES,
        bounds=BOUND_SERIES,
        tol=1e-7,
        out=str(tmp_path / "all.csv"),
    )


def test_sweep_survives_linalg_error_in_one_series(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(decoders, "build_sw", broken)
    points = run_sweep(_all_series_config(tmp_path))
    assert len(points) == 2 * (len(DECODER_SERIES) + len(BOUND_SERIES))
    for c in points:
        if c.series == "sw":
            assert c.flags == "error:LinAlgError" and math.isnan(c.value)
        else:
            assert c.flags == "ok" and np.isfinite(c.value), (c.series, c.p)


def test_sweep_flags_nan_fidelity_instead_of_clamping_it(tmp_path, monkeypatch):
    monkeypatch.setattr(decoders.RotatedFidelity, "petz", lambda self: math.nan)
    cfg = SweepConfig(
        setting="bitflip3",
        p_start=0.25,
        p_stop=0.25,
        p_count=1,
        decoders=("petz", "twirled"),
        bounds=("upper_bk", "lower_sw"),
        out=str(tmp_path / "nan.csv"),
    )
    flags = {c.series: c.flags for c in run_sweep(cfg)}
    assert flags == {
        "petz": "error:NonFinite",
        "twirled": "ok",
        "upper_bk": "error:NonFinite",
        "lower_sw": "ok",
    }


def test_clamp_unit_rejects_non_finite_values():
    assert matcore.clamp_unit(1.0 + 4e-16) == 1.0
    assert matcore.clamp_unit(-1e-17) == 0.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite):
            matcore.clamp_unit(bad)


def test_sweep_setup_failure_flags_every_series_at_that_point(tmp_path, monkeypatch):
    real_purify = bench.purify
    failures = [np.linalg.LinAlgError("eigh did not converge")]

    def purify_failing_once(rho):
        if failures:
            raise failures.pop()
        return real_purify(rho)

    monkeypatch.setattr(bench, "purify", purify_failing_once)
    points = run_sweep(_all_series_config(tmp_path))
    wanted = len(DECODER_SERIES) + len(BOUND_SERIES)
    assert len(points) == 2 * wanted
    first, second = points[:wanted], points[wanted:]
    assert all(c.p == 0.25 and c.flags == "error:LinAlgError" for c in first)
    assert all(math.isnan(c.value) for c in first)
    assert all(c.p == 0.75 and c.flags == "ok" for c in second)


def test_sweep_computes_epsilon_sw_once_per_point(tmp_path, monkeypatch):
    calls = []
    real = infomeasures.epsilon_sw

    def counting(sigma_rb):
        calls.append(sigma_rb)
        return real(sigma_rb)

    monkeypatch.setattr(infomeasures, "epsilon_sw", counting)
    cfg = dataclasses.replace(
        _tiny_config(tmp_path), decoders=(), bounds=("lower_twirled", "sw_original")
    )
    points = run_sweep(cfg)
    assert len(calls) == cfg.p_count
    sigma_at = dict(zip(cfg.grid().tolist(), calls))
    for c in points:
        eps = real(sigma_at[c.p])
        if c.series == "lower_twirled":
            assert c.value == 2.0 ** (-eps)
        else:
            assert c.value == infomeasures.sw_original_bound(max(0.0, eps))


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every petzlab module that binds it."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (petzlab, matcore, quantum, infomeasures, decoders, optdec, bench):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_sweep_point_purifies_at_most_three_times(tmp_path, monkeypatch):
    # the sweep set-up, build_sw and the SDP objective; fidelities of
    # materialized decoders need no purification
    calls = _count_calls(monkeypatch, quantum, "purify")
    cfg = SweepConfig(
        setting="lncy4", p_start=0.3, p_stop=0.3, p_count=1, out=str(tmp_path / "x.csv")
    )
    points = run_sweep(cfg)
    assert [c.flags for c in points] == ["ok"] * (len(DECODER_SERIES) + len(BOUND_SERIES))
    assert len(calls) <= 3


def test_fe_of_decoder_makes_no_eigendecomposition(monkeypatch):
    rho, ch = bench.SETTINGS["lncy4"].build(0.3)
    dec, _ = decoders.build_sw(rho, ch)
    calls = _count_calls(monkeypatch, matcore, "herm_eig")
    assert 0.0 < decoders.fe_of_decoder(rho, ch, dec) <= 1.0
    assert calls == []


# -- audit -----------------------------------------------------------------------


def test_audit_identity_setting_passes():
    report = audit_invariants("identity", points=3)
    assert isinstance(report, AuditReport)
    assert report.ok, report.failures()


def test_audit_contains_linalg_error_in_one_series(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(decoders, "build_sw", broken)
    report = audit_invariants("bitflip3", points=2)
    failed = report.failures()
    assert [r.detail for r in failed if r.check == "sw"] == ["error:LinAlgError"] * 2
    # the only check that reads the sw value fails on its NaN; the others pass
    assert {r.check for r in failed} == {"sw", "cor1b_chain"}
    assert main(["audit", "--setting", "bitflip3", "--points", "2"]) == 2
    assert "[FAIL] bitflip3 p=0 sw: error:LinAlgError" in capsys.readouterr().out


def test_audit_checks_the_sweep_rows(monkeypatch):
    requested = []
    real = bench._series_values

    def petz_shifted(setting, p, wanted, tol):
        requested.append(wanted)
        rows = real(setting, p, wanted, tol)
        return [
            dataclasses.replace(c, value=c.value - 0.5) if c.series == "petz" else c
            for c in rows
        ]

    monkeypatch.setattr(bench, "_series_values", petz_shifted)
    report = audit_invariants("identity", points=3)
    assert requested == [("petz", "twirled", "sw", "lower_sw", "lower_twirled", "optimal")] * 3
    failed = {r.check for r in report.failures()}
    assert failed == {"thm2_petz_closed_form", "cor2c_chain", "bk_bracket"}


def test_audit_skipped_sdp_gives_no_bracket_row(monkeypatch):
    monkeypatch.setattr(bench, "SDP_DIM_LIMIT", 0)
    report = audit_invariants("identity", points=2)
    assert report.ok, report.failures()
    assert "bk_bracket" not in {r.check for r in report.rows}
    no_sdp = audit_invariants("identity", points=2, include_sdp=False)
    assert [r.check for r in no_sdp.rows] == [r.check for r in report.rows]


def test_audit_unknown_setting():
    with pytest.raises(ValidationError):
        audit_invariants("nosuch")


def test_corrupted_decoder_surfaces_trace_violation():
    ch = make_channel("bitflip", 0.3)
    bad = KrausChannel(
        kraus_ops=tuple(1.01 * k for k in ch.kraus_ops),
        dim_in=2,
        dim_out=2,
    )
    with pytest.raises(NotTracePreserving):
        validate_cptp(bad)


# -- CLI -------------------------------------------------------------------------


def test_cli_sweep_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    config = tmp_path / "cfg.txt"
    config.write_text(
        f"setting = bitflip3\np_count = 2\np_stop = 0.5\n"
        f"decoders = petz\nbounds = upper_bk\nout = {out}\n"
    )
    assert main(["sweep", "--config", str(config)]) == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "setting,p,series,value,seconds,flags"
    assert len(lines) == 5


def test_cli_sweep_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("setting = nosuch\n")
    assert main(["sweep", "--config", str(config)]) == 3
    assert main(["sweep", "--config", str(tmp_path / "missing.txt")]) == 3


def test_cli_audit(capsys):
    assert main(["audit", "--setting", "identity", "--points", "2"]) == 0
    captured = capsys.readouterr()
    assert "[pass]" in captured.out
    assert main(["audit", "--setting", "nosuch"]) == 3


def test_env_var_overrides_worker_count(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path, workers=4)
    monkeypatch.setenv("PETZLAB_WORKERS", "1")
    points = run_sweep(cfg)  # forced serial; values unchanged
    assert len(points) == 12
    assert all(np.isfinite(c.value) for c in points)


def test_sweep_all_fidelity_series_one_at_zero_noise(tmp_path):
    cfg = SweepConfig(
        setting="bitflip3",
        p_start=0.0,
        p_stop=0.0,
        p_count=1,
        decoders=("sw", "petz", "twirled", "optimal", "none"),
        bounds=(),
        tol=1e-7,
        out=str(tmp_path / "zero.csv"),
    )
    for point in run_sweep(cfg):
        assert point.value == pytest.approx(1.0, abs=1e-6), point.series


def test_sweep_lncy4_strict_ordering(tmp_path):
    cfg = SweepConfig(
        setting="lncy4",
        p_start=0.2,
        p_stop=0.2,
        p_count=1,
        decoders=("sw", "petz", "twirled", "optimal"),
        bounds=(),
        tol=1e-7,
        out=str(tmp_path / "lncy4.csv"),
    )
    vals = {c.series: c.value for c in run_sweep(cfg)}
    assert vals["optimal"] >= vals["sw"] - 1e-7
    assert vals["sw"] > vals["petz"] + 1e-6
    assert vals["petz"] > vals["twirled"] + 1e-6


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit", "identity"])
def test_every_series_clean_at_extreme_noise(setting, tmp_path):
    for p in (0.0, 1e-14, 1e-10, 1e-6, 1 - 1e-10, 1 - 1e-14, 1.0):
        cfg = SweepConfig(
            setting=setting, p_start=p, p_stop=p, p_count=1, out=str(tmp_path / "x.csv")
        )
        points = run_sweep(cfg)
        assert len(points) == len(DECODER_SERIES) + len(BOUND_SERIES)
        for c in points:
            assert c.flags == "ok", (p, c.series, c.flags)
            assert math.isfinite(c.value), (p, c.series)
            assert -1e-10 <= c.value <= 1 + 1e-10, (p, c.series, c.value)


@pytest.mark.parametrize("p", [0.0, 1e-6])
def test_bound_rows_clamped_to_one(p):
    # Unclamped, fivequbit lower_sw and upper_bk read 1 + 4e-16 at p = 0.
    # lower_twirled stays 2^(-eps) exactly (see the epsilon_sw test above).
    series = ("petz", "lower_sw", "upper_bk")
    rows = {c.series: c for c in bench._series_values("fivequbit", p, series, 1e-7)}
    for name in series:
        assert rows[name].flags == "ok" and 0.0 <= rows[name].value <= 1.0, (name, rows[name])
    assert rows["upper_bk"].value == math.sqrt(rows["petz"].value)


def test_twirled_decoder_makes_no_dense_choi_eigendecomposition(monkeypatch):
    # the Kraus operators come from the (r_B r_A)^2 = 64^2 spectral core, not
    # from channel_from_choi's eigh of the 1024^2 Choi matrix
    rho, ch = bench.SETTINGS["fivequbit"].build(0.5)
    from_choi = _count_calls(monkeypatch, quantum, "channel_from_choi")
    eighs = _count_calls(monkeypatch, matcore, "herm_eig")
    decoders.build_twirled_petz(rho, ch)
    assert from_choi == []
    assert eighs and max(np.shape(args[0])[0] for args in eighs) <= 64


def test_fidelity_objective_needs_no_purification(monkeypatch):
    rho, ch = bench.SETTINGS["lncy4"].build(0.3)
    calls = _count_calls(monkeypatch, quantum, "purify")
    optdec.build_fidelity_sdp(rho, ch)
    optdec.reduce_problem(rho, ch)
    assert calls == []


def test_sdp_reduction_simulates_no_decoder(monkeypatch):
    # G is held to direct simulation by the suite, not by each build
    rho, ch = bench.SETTINGS["lncy4"].build(0.3)
    calls = _count_calls(monkeypatch, decoders, "fe_of_decoder")
    optdec.reduce_problem(rho, ch)
    optdec._sector_problems(rho, ch)
    assert calls == []


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_env_worker_count_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    config = tmp_path / "sweep.txt"
    config.write_text(f"setting = bitflip3\np_count = 2\nout = {tmp_path / 'out.csv'}\n")
    monkeypatch.setenv("PETZLAB_WORKERS", value)
    with pytest.raises(ValidationError, match="PETZLAB_WORKERS"):
        run_sweep(_tiny_config(tmp_path))
    assert main(["sweep", "--config", str(config)]) == 3
    assert "config error: PETZLAB_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sdp_dim_limit_applies_to_the_largest_sector(monkeypatch):
    # the reduced fivequbit problem is 64 wide, its largest sector 8 * 2 = 16
    monkeypatch.setattr(bench, "SDP_DIM_LIMIT", 32)
    [row] = bench._series_values("fivequbit", 0.5, ("optimal",), 1e-7)
    assert row.flags == "ok"
    assert 0.0 < row.value <= 1.0
    monkeypatch.setattr(bench, "SDP_DIM_LIMIT", 0)
    [row] = bench._series_values("fivequbit", 0.5, ("optimal",), 1e-7)
    assert row.flags == "skipped:sdp_dim_16"
    assert math.isnan(row.value)


@pytest.mark.parametrize("workers", [0, -2])
def test_bad_configured_worker_count_is_a_validation_error(tmp_path, monkeypatch, workers):
    # a SweepConfig built in code is held to the config file's rule
    monkeypatch.delenv("PETZLAB_WORKERS", raising=False)
    with pytest.raises(ValidationError, match="workers: must be >= 1"):
        run_sweep(_tiny_config(tmp_path, workers=workers))


# -- one schema: file and code configs share every rule ---------------------------

# (assignments key -> (config-file text, SweepConfig value), expected error)
RULE_CASES = {
    "unknown_setting": ({"setting": ("nosuch", "nosuch")}, "setting: unknown setting 'nosuch'"),
    "p_start_below_0": ({"p_start": ("-0.1", -0.1)}, "p_start: must be in [0, 1], got -0.1"),
    "p_start_nan": ({"p_start": ("nan", math.nan)}, "p_start: must be in [0, 1], got nan"),
    "p_stop_above_1": ({"p_stop": ("1.5", 1.5)}, "p_stop: must be in [0, 1], got 1.5"),
    "reversed_range": (
        {"p_start": ("0.5", 0.5), "p_stop": ("0.1", 0.1)},
        "p_stop: p_stop is smaller than p_start",
    ),
    "p_count_0": ({"p_count": ("0", 0)}, "p_count: must be >= 1, got 0"),
    "p_count_negative": ({"p_count": ("-3", -3)}, "p_count: must be >= 1, got -3"),
    "unknown_decoder": (
        {"decoders": ("sw,magic", ("sw", "magic"))},
        "decoders: unknown series 'magic'",
    ),
    "repeated_decoder": (
        {"decoders": ("petz,petz", ("petz", "petz"))},
        "decoders: repeated series",
    ),
    "bound_as_decoder": (
        {"bounds": ("upper_bk,petz", ("upper_bk", "petz"))},
        "bounds: unknown series 'petz'",
    ),
    "repeated_bound": (
        {"bounds": ("upper_bk,upper_bk", ("upper_bk", "upper_bk"))},
        "bounds: repeated series",
    ),
    "both_lists_empty": (
        {"decoders": ("", ()), "bounds": ("", ())},
        "decoders: decoder and bound lists are both empty",
    ),
    "tol_zero": ({"tol": ("0", 0.0)}, "tol: must be positive, got 0.0"),
    "tol_negative": ({"tol": ("-1e-7", -1e-7)}, "tol: must be positive, got -1e-07"),
    "tol_nan": ({"tol": ("nan", math.nan)}, "tol: must be positive, got nan"),
    "tol_inf": ({"tol": ("inf", math.inf)}, "tol: must be below 1, got inf"),
    "tol_one": ({"tol": ("1", 1.0)}, "tol: must be below 1, got 1.0"),
    "out_empty": ({"out": ("", "")}, "out: output path is empty"),
    "workers_0": ({"workers": ("0", 0)}, "workers: must be >= 1, got 0"),
    "workers_negative": ({"workers": ("-2", -2)}, "workers: must be >= 1, got -2"),
}


@pytest.mark.parametrize("case", RULE_CASES.values(), ids=RULE_CASES.keys())
def test_config_rule_holds_for_file_and_code(case):
    assignments, expected = case
    assignments = {"setting": ("bitflip3", "bitflip3")} | assignments
    text = "".join(f"{key} = {raw}\n" for key, (raw, _) in assignments.items())
    with pytest.raises(ValidationError) as from_file:
        parse_config(text)
    with pytest.raises(ValidationError) as from_code:
        SweepConfig(**{key: value for key, (_, value) in assignments.items()})
    assert str(from_file.value) == str(from_code.value) == expected
    assert from_file.value.field == from_code.value.field == expected.split(":")[0]


def test_parse_rejects_missing_setting():
    with pytest.raises(ValidationError, match="setting: required key is missing"):
        parse_config("p_count = 3\n")


@pytest.mark.parametrize(
    "kw, expected",
    [
        ({"p_count": 2.5}, "p_count: not an integer: 2.5"),
        ({"workers": True}, "workers: not an integer: True"),
        ({"workers": "2"}, "workers: not an integer: '2'"),
    ],
)
def test_code_built_counts_must_be_integers(kw, expected):
    with pytest.raises(ValidationError) as err:
        SweepConfig(setting="bitflip3", **kw)
    assert str(err.value) == expected


def test_code_built_series_lists_become_tuples():
    cfg = SweepConfig(setting="bitflip3", decoders=["petz"], bounds=[], workers=np.int64(2))
    assert cfg.decoders == ("petz",) and cfg.bounds == ()


def test_cli_sweep_infinite_tol_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "inf.txt"
    out = tmp_path / "inf.csv"
    config.write_text(f"setting = lncy4\np_start = 0.3\np_count = 1\ntol = inf\nout = {out}\n")
    assert main(["sweep", "--config", str(config)]) == 3
    assert "config error: tol: must be below 1, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", [0, -3])
def test_audit_rejects_fewer_than_one_point(points, capsys):
    with pytest.raises(ValidationError, match="must be >= 1"):
        audit_invariants("identity", points=points)
    assert main(["audit", "--setting", "identity", "--points", str(points)]) == 3
    assert "[pass]" not in capsys.readouterr().out


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit", "identity"])
def test_audit_checks_the_complementary_identity(setting):
    report = audit_invariants(setting, points=5, include_sdp=False)
    assert report.ok, report.failures()
    rows = [r for r in report.rows if r.check == "thm_complementary"]
    assert [r.p for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_audit_complementary_row_reads_the_mutual_information(monkeypatch):
    real = infomeasures.singly_min_petz_mi_half
    monkeypatch.setattr(
        infomeasures, "singly_min_petz_mi_half", lambda sigma_re: real(sigma_re) + 0.1
    )
    report = audit_invariants("bitflip3", points=3, include_sdp=False)
    assert {r.check for r in report.failures()} == {"thm_complementary"}
    assert len(report.failures()) == 3


def test_complementary_identity_uses_the_unpadded_environment(monkeypatch):
    # one environment slot per Kraus operator: sigma_RE is 2 * 32 = 64 wide on
    # fivequbit, not the 2 * 1024 of complementary_channel's padded E
    rho, ch = bench.SETTINGS["fivequbit"].build(0.5)
    padded = _count_calls(monkeypatch, quantum, "stinespring_dilation")
    eighs = _count_calls(monkeypatch, matcore, "herm_eig")
    f_comp = bench._complementary_petz(rho, ch)
    f_sim = decoders.fe_of_decoder(rho, ch, decoders.build_petz(rho, ch))
    assert abs(f_sim - f_comp) <= bench.THM2_TOL
    assert padded == []
    assert eighs and max(np.shape(args[0])[0] for args in eighs) <= 64


def test_one_point_range_needs_one_point(tmp_path, capsys):
    expected = "p_count: must be 1 when p_stop == p_start, got 3"
    with pytest.raises(ValidationError) as from_code:
        SweepConfig(setting="bitflip3", p_start=0.3, p_stop=0.3, p_count=3)
    assert str(from_code.value) == expected
    config = tmp_path / "repeat.txt"
    out = tmp_path / "repeat.csv"
    config.write_text(
        f"setting = bitflip3\np_start = 0.3\np_stop = 0.3\np_count = 3\nout = {out}\n"
    )
    assert main(["sweep", "--config", str(config)]) == 3
    assert f"config error: {expected}" in capsys.readouterr().err
    assert not out.exists()
    one = SweepConfig(setting="bitflip3", p_start=0.3, p_stop=0.3, p_count=1)
    assert one.grid().tolist() == [0.3]


def test_purify_and_spectra_reuse_the_state_spectrum(monkeypatch):
    rho, ch = bench.SETTINGS["lncy4"].build(0.3)
    eighs = _count_calls(monkeypatch, matcore, "herm_eig")
    quantum.purify(rho)
    decoders._spectra(rho, ch)
    assert not any(np.array_equal(args[0], rho.matrix) for args in eighs)


def test_sweep_workers_see_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    with bench._worker_pool(2) as pool:
        seen = list(pool.map(os.getenv, names))
    assert seen == ["1", "1", "1"]
    # the caller's environment is back as it was
    assert [os.environ.get(name) for name in names] == ["4", None, None]


def test_module_entry_point_runs_without_runpy_warning(tmp_path):
    src = os.path.dirname(os.path.dirname(petzlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["audit", "--setting", "identity", "--points", "2", "--no-sdp"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "petzlab", *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
