"""Real data runs in real arithmetic, and agrees with the complex path.

States and channels whose imaginary part is exactly 0 are stored as float64
(matcore.real_if_exact), and every kernel keeps the dtype it is given. A
diagonal phase gauge rho -> U rho U^dagger, K_k -> V K_k U^dagger with
U = u^(tensor n), V = v^(tensor m) and u, v = diag(1, e^(i phi)) makes the
same instance genuinely complex, keeps it qubit-permutation symmetric and
leaves every fidelity and bound unchanged, so the two paths are held to
each other at roundoff.
"""

import sys

import numpy as np
import pytest

from petzlab import bench, decoders, infomeasures, optdec
from petzlab.bench import SETTINGS
from petzlab.matcore import matrix_power_on_support
from petzlab.quantum import channel_on_purification, density_operator, kraus_channel, purify

GRID = np.linspace(0.0, 1.0, 21)[1:-1]  # the interior of the 21-point grid
ROUNDOFF = 1e-13


def _phases(dim: int, angle: float) -> np.ndarray:
    """The diagonal of diag(1, e^(i angle))^(tensor n) on n = log2(dim) qubits."""
    weight = np.array([bin(i).count("1") for i in range(dim)])
    return np.exp(1j * angle * weight)


def _gauged(rho, ch, phi=0.7, psi=-1.3):
    """(U rho U^dagger, {V K_k U^dagger}) for the product phase gauges U, V."""
    u, v = _phases(rho.dim, phi), _phases(ch.dim_out, psi)
    rho_g = density_operator(rho.matrix * np.outer(u, u.conj()))
    ch_g = kraus_channel(v[:, None] * ch.kraus_ops * u.conj())
    assert rho_g.matrix.dtype == ch_g.kraus_ops.dtype == np.complex128
    return rho_g, ch_g


def _values(rho, ch):
    """Every closed-form series, bound and materialized decoder fidelity."""
    sigma_rb = channel_on_purification(purify(rho), ch)
    kernel = decoders.RotatedFidelity(sigma_rb)
    w_r = matrix_power_on_support(sigma_rb.marginal("R"), -1.0)
    sw, overlaps = decoders.build_sw(rho, ch)
    return {
        "petz": kernel.petz(),
        "twirled": kernel.twirled(bench.QUAD_TOL),
        "exact_twirled": kernel.exact_twirled(),
        "lower_sw": 2.0 ** infomeasures.min_petz_mi_order2(sigma_rb, w_r),
        "epsilon_sw": infomeasures.epsilon_sw(sigma_rb),
        "sw_overlap": float(overlaps.sum()),
        "fe_sw": decoders.fe_of_decoder(rho, ch, sw),
        "fe_petz": decoders.fe_of_decoder(rho, ch, decoders.build_petz(rho, ch)),
        "fe_twirled": decoders.fe_of_decoder(rho, ch, decoders.build_twirled_petz(rho, ch)),
    }


def _optimal(rho, ch, tol=1e-7):
    return optdec._solve_sectors(optdec._refine_sectors(optdec._sector_problems(rho, ch)), tol)


def _assert_paths_agree(rho, ch, optimal=True):
    assert rho.matrix.dtype == ch.kraus_ops.dtype == np.float64
    rho_g, ch_g = _gauged(rho, ch)
    real, cplx = _values(rho, ch), _values(rho_g, ch_g)
    for name in real:
        assert abs(real[name] - cplx[name]) <= ROUNDOFF, name
    if optimal:
        (opt_r, gap_r), (opt_c, gap_c) = _optimal(rho, ch), _optimal(rho_g, ch_g)
        assert abs(opt_r - opt_c) <= abs(gap_r) + abs(gap_c)


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_real_path_agrees_with_gauged_complex_path_on_the_grid(setting):
    # The gauged fivequbit SDP is solved whole, 32 wide (no permutation split
    # is certified on it), about 3 s a point: its optimum is compared at
    # p = 0.25, 0.5 and 0.75 only.
    for i, p in enumerate(GRID):
        optimal = setting != "fivequbit" or i % 5 == 4
        _assert_paths_agree(*SETTINGS[setting].build(float(p)), optimal)


def test_real_path_agrees_with_gauged_complex_path_on_random_instances(rng):
    for d_in, d_out, rank, n_kraus in [(4, 4, 2, 2), (4, 2, 3, 3), (2, 4, 2, 2), (4, 4, 4, 3)]:
        g = rng.standard_normal((d_in, rank))
        rho = density_operator(g @ g.T / np.trace(g @ g.T))
        q = np.linalg.qr(rng.standard_normal((d_out * n_kraus, d_in)))[0]
        ch = kraus_channel(q.reshape(n_kraus, d_out, d_in))
        _assert_paths_agree(rho, ch)


# -- the arithmetic pin ---------------------------------------------------------------

_LAPACK = ("eigh", "eigvalsh", "svd", "cholesky", "inv", "solve")


def _record_lapack(monkeypatch):
    """Record (name, dtype) of the first argument of each np.linalg call in
    _LAPACK, except the calls made inside the copy search's proposals of a
    product unitary (optdec._propose_products and optdec._intertwiner),
    where W = diag(1, i) is genuinely complex."""
    exempt = {optdec._propose_products.__code__, optdec._intertwiner.__code__}
    calls = []

    def recording(name, real):
        def call(a, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in exempt:
                frame = frame.f_back
            if frame is None:
                calls.append((name, np.asarray(a).dtype))
            return real(a, *args, **kwargs)

        return call

    for name in _LAPACK:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_every_series_runs_in_real_arithmetic(monkeypatch, setting):
    series = bench.DECODER_SERIES + bench.BOUND_SERIES
    calls = _record_lapack(monkeypatch)
    points = bench._series_values(setting, 0.5, series, 1e-7)
    monkeypatch.undo()
    assert [pt.flags for pt in points] == ["ok"] * len(series)
    assert calls and all(dtype == np.float64 for _, dtype in calls), sorted(set(calls))

