import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from petzlab import decoders, quantum
from petzlab.bench import SETTINGS
from petzlab.decoders import (
    THETA_TIE,
    RotatedFidelity,
    beta0_quadrature,
    _beta0_adaptive,
    _beta0_panels,
    _petz_eigenbasis,
    _twirled_decoder,
    build_petz,
    build_rotated_petz,
    build_sw,
    build_twirled_petz,
    fe_closed_form,
    fe_of_decoder,
    identity_decoder,
)
from petzlab.errors import InvalidParameter, ToleranceNotMet
from petzlab.infomeasures import sandwiched_mi_upup_half
from petzlab.matcore import dag, herm_eig
from petzlab.quantum import (
    apply_channel,
    channel_from_choi,
    channel_on_purification,
    choi_of_channel,
    density_operator,
    dilate,
    kraus_channel,
    make_channel,
    make_code_source,
    purify,
    validate_cptp,
)

import oracles


def _random_instance(rng, d_a=None, d_b=None):
    d_a = d_a or int(rng.integers(2, 5))
    d_b = d_b or int(rng.integers(2, 5))
    rho = density_operator(oracles.random_state(rng, d_a))
    ch = kraus_channel(
        oracles.random_kraus(rng, d_a, d_b, 2), label_in="A", label_out="B"
    )
    return rho, ch


def _sigma_rb(rho, ch):
    return channel_on_purification(purify(rho), ch)


# -- Petz decoder ---------------------------------------------------------------


def test_petz_identity_channel(rng):
    rho = density_operator(oracles.random_state(rng, 3))
    ch = kraus_channel([np.eye(3)])
    dec = build_petz(rho, ch)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-10)
    x = oracles.random_psd(rng, 3)
    # acts as the identity on the support of rho (full rank here)
    assert np.linalg.norm(apply_channel(dec.channel, x) - x) <= 1e-9


def test_petz_fully_depolarizing(rng):
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("depolarizing", 1.0)
    dec = build_petz(rho, ch)
    f_sim = fe_of_decoder(rho, ch, dec)
    f_closed = fe_closed_form(_sigma_rb(rho, ch), "petz")
    # analytic value tr[rho_R^3] route: 2 * (1/2)^3 * 2 = 1/4
    assert f_sim == pytest.approx(0.25, abs=1e-10)
    assert f_closed == pytest.approx(0.25, abs=1e-10)


def test_petz_bitflip3_noiseless():
    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.0, n=3)
    dec = build_petz(rho, ch)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-10)


def test_petz_recovers_source(rng):
    rho, ch = _random_instance(rng)
    dec = build_petz(rho, ch)
    recovered = apply_channel(dec.channel, apply_channel(ch, rho.matrix))
    assert np.linalg.norm(recovered - rho.matrix) <= 1e-9


def test_petz_channel_is_cptp(rng):
    rho, ch = _random_instance(rng)
    validate_cptp(build_petz(rho, ch).channel)


def test_petz_with_kernel_completion():
    # amplitude damping at p=0 leaves sigma_B rank-deficient on 2 qubits
    rho = make_code_source("lncy4")
    ch = make_channel("amplitude_damping", 0.0, n=4)
    dec = build_petz(rho, ch)
    validate_cptp(dec.channel)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-9)


# -- rotated decoder --------------------------------------------------------------


def test_rotated_zero_equals_petz(rng):
    rho, ch = _random_instance(rng, 3, 3)
    petz = build_petz(rho, ch)
    rot = build_rotated_petz(rho, ch, 0.0)
    for i in range(3):
        for j in range(3):
            basis = np.zeros((3, 3), dtype=complex)
            basis[i, j] = 1.0
            assert np.linalg.norm(
                apply_channel(petz.channel, basis) - apply_channel(rot.channel, basis)
            ) <= 1e-10


def test_rotated_identity_channel_still_perfect(rng):
    rho = density_operator(oracles.random_state(rng, 3))
    ch = kraus_channel([np.eye(3)])
    dec = build_rotated_petz(rho, ch, 1.0)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-9)


def test_rotation_never_helps(rng):
    for _ in range(5):
        rho, ch = _random_instance(rng)
        f0 = fe_of_decoder(rho, ch, build_petz(rho, ch))
        f2 = fe_of_decoder(rho, ch, build_rotated_petz(rho, ch, 2.0))
        assert f2 <= f0 + 1e-9


# -- closed forms ------------------------------------------------------------------


def test_closed_form_identity_channel_is_one(rng):
    rho = density_operator(oracles.random_state(rng, 3))
    ch = kraus_channel([np.eye(3)])
    assert fe_closed_form(_sigma_rb(rho, ch), "petz") == pytest.approx(1.0, abs=1e-10)


def test_closed_form_rejects_an_unknown_variant(rng):
    rho = density_operator(oracles.random_state(rng, 2))
    with pytest.raises(InvalidParameter, match="bogus"):
        fe_closed_form(_sigma_rb(rho, kraus_channel([np.eye(2)])), "bogus")


def test_closed_form_matches_simulation(rng):
    for _ in range(10):
        rho, ch = _random_instance(rng)
        srb = _sigma_rb(rho, ch)
        kernel = RotatedFidelity(srb)
        assert abs(
            fe_of_decoder(rho, ch, build_petz(rho, ch)) - kernel.petz()
        ) <= 1e-8
        for t in (-3.0, -1.0, 0.5, 2.0):
            sim = fe_of_decoder(rho, ch, build_rotated_petz(rho, ch, t))
            assert abs(sim - kernel.value(t)) <= 1e-8


def test_twirled_closed_form_matches_exact_transform(rng):
    # The beta0 average of a finite sum of oscillations has the exact value
    # sum c_jk * x/sinh(x) at x = delta_jk; cross-check the quadrature.
    rho, ch = _random_instance(rng, 3, 3)
    kernel = RotatedFidelity(_sigma_rb(rho, ch))
    quad = kernel.twirled(1e-10)
    x = kernel._delta
    weight = np.where(np.abs(x) < 1e-30, 1.0, x / np.sinh(np.where(x == 0, 1.0, x)))
    exact = float(np.sum(kernel._coeff * weight).real)
    assert abs(quad - exact) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="panel bisection is a heuristic: twirled(1e-9) is 5.9e-9 from the exact "
    "transform at lncy4 p=0.0625",
)
def test_twirled_quadrature_error_within_tol_lncy4():
    rho, ch = SETTINGS["lncy4"].build(0.0625)
    kernel = RotatedFidelity(_sigma_rb(rho, ch))
    x = kernel._delta
    weight = np.where(x == 0, 1.0, x / np.sinh(np.where(x == 0, 1.0, x)))
    exact = float(np.sum(kernel._coeff * weight))
    assert abs(kernel.twirled(1e-9) - exact) <= 1e-9


# -- exact beta0 transform -----------------------------------------------------------


@pytest.mark.parametrize("omega", [0.0, 1e-9, 0.3, 1.0, 5.0, 30.0])
def test_beta0_transform_matches_fourier_integral(omega):
    def beta0(t):  # (pi/2) / (cosh(pi t) + 1), in a form that cannot overflow
        e = math.exp(-math.pi * abs(t))
        return math.pi * e / (1 + e) ** 2

    half, _ = quad(
        lambda t: beta0(t) * math.cos(omega * t),
        0.0,
        30.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=1000,
    )
    assert abs(decoders._beta0_transform(omega) - 2 * half) <= 1e-14


@pytest.mark.parametrize("x", [1e-300, 60.0, 1e3, 1e308])
def test_beta0_transform_is_finite_without_warnings(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = decoders._beta0_transform(np.array([x, -x]))
    assert np.isfinite(kappa).all() and kappa[0] == kappa[1]
    assert 0.0 <= kappa[0] <= 1.0


def _exact_twirled_instances(setting):
    """The 21-point grid and p in {1e-10, 1 - 1e-10} of a setting, or random
    instances, rank-deficient ones with d_A != d_B among them."""
    if setting == "random":
        rng = np.random.default_rng(11)
        return [*_rank_deficient_instances(rng), *(_random_instance(rng) for _ in range(6))]
    return [SETTINGS[setting].build(float(p)) for p in [*GRID_21, 1e-10, 1 - 1e-10]]


EXACT_TWIRLED_CASES = ["bitflip3", "lncy4", "fivequbit", "random"]


@pytest.mark.parametrize("setting", EXACT_TWIRLED_CASES)
def test_exact_twirled_matches_tight_quadrature(setting):
    # the quadrature at tol 1e-12 is off by about its |t| <= 8 tail, 2.4e-11
    for rho, ch in _exact_twirled_instances(setting):
        kernel = RotatedFidelity(_sigma_rb(rho, ch))
        assert abs(kernel.exact_twirled() - kernel.twirled(1e-12)) <= 1e-10


# -- batched and spectral fast paths against the paths they replace ------------------

GRID_21 = np.linspace(0.0, 1.0, 21)
PARITY_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": np.array([0.1, 0.45, 0.8]),
}


def _parity_kernels(setting):
    if setting == "random":
        rng = np.random.default_rng(7)
        instances = [_random_instance(rng) for _ in range(8)]
    else:
        instances = [SETTINGS[setting].build(float(p)) for p in PARITY_POINTS[setting]]
    return [RotatedFidelity(_sigma_rb(rho, ch)) for rho, ch in instances]


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit", "random"])
def test_value_batch_matches_scalar_loop(setting):
    ts = np.concatenate([np.linspace(-8.0, 8.0, 65), np.random.default_rng(3).normal(0, 3, 31)])
    for kernel in _parity_kernels(setting):
        batch = kernel.value(ts)
        loop = np.array([kernel.value(float(t)) for t in ts])
        assert isinstance(kernel.value(0.5), float)
        assert batch.shape == ts.shape
        assert np.max(np.abs(batch - loop)) <= 1e-13
        assert np.array_equal(kernel.value(ts.reshape(8, 12)), batch.reshape(8, 12))


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit", "random"])
def test_twirled_batched_matches_scalar_quadrature(setting):
    for kernel in _parity_kernels(setting):
        scalar = beta0_quadrature(lambda t: float(kernel.value(t)), 1e-9)
        assert abs(kernel.twirled(1e-9) - scalar) <= 1e-12


def test_beta0_panels_reuse_parent_estimates():
    # After the initial 4 panels, each call evaluates only the two halves of
    # the open panels it bisects (128 nodes each, the 4 initial panels first);
    # a panel itself is not evaluated again, so the halves evaluated are
    # those of the depth-first loop, one 128-node call per panel there.
    calls, depth_first_calls = [], []

    def g_batch(ts):
        calls.append(ts.size)
        return np.cos(1.3 * ts)

    def g_depth_first(ts):
        depth_first_calls.append(ts.size)
        return np.cos(1.3 * ts)

    value, nodes, weights = _beta0_panels(g_batch, 1e-10)
    oracles.beta0_panels_depth_first(g_depth_first, 1e-10)
    assert calls[0] == 4 * 64 and calls[1] == 4 * 128
    assert all(size % 128 == 0 for size in calls[1:])
    assert depth_first_calls[0] == 4 * 64 and set(depth_first_calls[1:]) == {128}
    assert sum(calls[1:]) == sum(depth_first_calls[1:])
    assert value == pytest.approx(float(np.dot(weights, np.cos(1.3 * nodes))), abs=1e-14)
    scalar, s_nodes, _ = _beta0_adaptive(lambda t: math.cos(1.3 * t), 1e-10)
    assert abs(value - scalar) <= 1e-15 and np.array_equal(nodes, s_nodes)


QUADRATURE_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": np.array([0.1, 0.5, 0.9]),
}


@pytest.mark.parametrize("setting", sorted(QUADRATURE_POINTS))
def test_batched_panels_bit_identical_to_depth_first(setting):
    # The batched loop takes the same panels with the same estimates and sums
    # them in the same order: value, nodes and weights are bit-identical.
    for p in QUADRATURE_POINTS[setting]:
        kernel = RotatedFidelity(_sigma_rb(*SETTINGS[setting].build(float(p))))
        for tol in (1e-9, 1e-12):
            value, nodes, weights = _beta0_panels(kernel.value, tol)
            ref_value, ref_nodes, ref_weights = oracles.beta0_panels_depth_first(
                kernel.value, tol
            )
            assert value == ref_value
            assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_batched_panels_cap_each_call():
    # lncy4 at p = 0.6, tol 1e-10 has more than _BATCH_PANELS panels open at
    # once: no call bisects more than that, and the result is still the
    # depth-first loop's, bit for bit.
    kernel = RotatedFidelity(_sigma_rb(*SETTINGS["lncy4"].build(0.6)))
    calls = []

    def g_batch(ts):
        calls.append(ts.size)
        return kernel.value(ts)

    value, nodes, weights = _beta0_panels(g_batch, 1e-10)
    ref_value, ref_nodes, ref_weights = oracles.beta0_panels_depth_first(kernel.value, 1e-10)
    assert max(calls) == 2 * decoders._BATCH_PANELS * decoders._GL_NODES
    assert value == ref_value
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_batched_panels_keep_the_depth_limit(monkeypatch):
    # a panel still open at _MAX_DEPTH raises, as in the depth-first loop
    monkeypatch.setattr(decoders, "_MAX_DEPTH", 2)
    with pytest.raises(ToleranceNotMet):
        _beta0_panels(lambda ts: np.cos(40.0 * ts), 1e-12)


@pytest.mark.parametrize(
    "g, tol, max_nodes",
    [
        # no estimate with a NaN in it can be accepted: the first call raises
        (lambda ts: np.full(ts.shape, np.nan), 1e-9, 4 * 64),
        # a tol below roundoff: the panel budget raises
        (lambda ts: np.cos(1.3 * ts), 1e-18, 4 * 64 + decoders._MAX_PANELS * 128),
    ],
    ids=["nan", "tol_below_roundoff"],
)
def test_beta0_panels_fail_within_bounded_nodes(g, tol, max_nodes):
    calls = []

    def g_batch(ts):
        calls.append(ts.size)
        return g(ts)

    with pytest.raises(ToleranceNotMet):
        _beta0_panels(g_batch, tol)
    assert sum(calls) <= max_nodes
    assert max(calls) <= 2 * decoders._BATCH_PANELS * decoders._GL_NODES


# -- the twirled value on the half line against the full line -----------------------

HALF_LINE_POINTS = {
    "bitflip3": GRID_21,
    # p = 0.0625: the point where twirled(1e-9) is 5.9e-9 from the exact transform
    "lncy4": np.append(GRID_21, 0.0625),
    "fivequbit": np.array([0.1, 0.5, 0.9]),
}


def _half_line_kernels(setting):
    if setting == "random":
        rng = np.random.default_rng(13)
        instances = [_random_instance(rng) for _ in range(8)]
    else:
        instances = [SETTINGS[setting].build(float(p)) for p in HALF_LINE_POINTS[setting]]
    return [RotatedFidelity(_sigma_rb(rho, ch)) for rho, ch in instances]


def _counted_panels(kernel, tol, **kwargs):
    calls = []

    def g_batch(ts):
        calls.append(ts.size)
        return kernel.value(ts)

    return _beta0_panels(g_batch, tol, **kwargs), calls


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit", "random"])
def test_half_line_twirled_matches_full_line(setting):
    ts = np.linspace(0.0, 8.0, 33)
    for kernel in _half_line_kernels(setting):
        # F is even bit for bit: cos is even and sin odd, and C_bar is real
        assert np.array_equal(kernel.value(-ts), kernel.value(ts))
        for tol in (1e-9, 1e-12):
            (full, f_nodes, f_weights), f_calls = _counted_panels(kernel, tol)
            (half, h_nodes, h_weights), h_calls = _counted_panels(kernel, tol, even=True)
            assert kernel.twirled(tol) == half
            assert abs(half - full) <= 1e-13
            # the accepted panels are the u >= 0 half of the full run's
            right = f_nodes > 0
            assert np.array_equal(f_nodes[right], h_nodes)
            assert np.array_equal(f_weights[right], h_weights)
            assert 2 * right.sum() == f_nodes.size
            g = kernel.value(h_nodes)
            doubled = 2 * float(np.dot(h_weights, g))
            # the same n terms summed in two orders, each within
            # n eps sum_i |2 w_i g(t_i)| of the exact sum; at tol 1e-12
            # (about 6e4 nodes) that is near 1e-11, and how far apart the two
            # sums fall depends on how the BLAS blocks the dot product
            roundoff = 2 * g.size * np.finfo(float).eps * np.abs(2 * h_weights * g).sum()
            assert half == pytest.approx(doubled, abs=roundoff)
            # half the nodes in every call; at tol 1e-12 the full run has
            # more than _BATCH_PANELS panels open at some levels and splits
            # them over more calls than the half line needs
            assert 2 * sum(h_calls) == sum(f_calls)
            if tol == 1e-9:
                assert [2 * size for size in h_calls] == f_calls
            else:
                assert len(h_calls) <= len(f_calls)


# -- the grouped kernel against the full n x n sum ------------------------------

GROUPING_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": np.array([0.1, 0.5, 0.9]),
}


def _near_tie_kernel():
    """RotatedFidelity of a 2 x 3 state whose theta values, for each r, are
    spaced 0.5 * THETA_TIE and then 2 * THETA_TIE apart: the first two share
    a group and the third does not. sigma_RB = sigma_R x sigma_B plus the
    coherence |r=0, b=1><r=1, b=0| + h.c., whose marginals are zero; it
    couples the shifted member of one group to another group, so merging
    moves F(t) at first order in the shift."""
    lam = np.array([0.7, 0.3])
    mu = np.exp(-np.array([0.0, 0.5, 2.5]) * THETA_TIE)
    mu /= mu.sum()
    m = np.kron(np.diag(lam), np.diag(mu))
    m[1, 3] = m[3, 1] = 0.1
    return RotatedFidelity(density_operator(m, dims=(2, 3), labels=("R", "B")))


def _grouping_kernels(setting):
    if setting == "random":
        rng = np.random.default_rng(11)
        instances = [_random_instance(rng) for _ in range(8)]
    elif setting == "near_tie":
        return [_near_tie_kernel()]
    else:
        instances = [SETTINGS[setting].build(float(p)) for p in GROUPING_POINTS[setting]]
    return [RotatedFidelity(_sigma_rb(rho, ch)) for rho, ch in instances]


GROUPING_CASES = ["bitflip3", "lncy4", "fivequbit", "random", "near_tie"]


@pytest.mark.parametrize("setting", GROUPING_CASES)
def test_grouped_value_matches_full_sum(setting):
    # Merging theta within THETA_TIE moves F(t) by at most petz * THETA_TIE * |t|.
    ts = np.concatenate([np.linspace(-8.0, 8.0, 65), np.random.default_rng(5).normal(0, 3, 31)])
    for kernel in _grouping_kernels(setting):
        bound = kernel.petz() * THETA_TIE * np.abs(ts) + 1e-15
        assert np.all(np.abs(kernel.value(ts) - oracles.rotated_fidelity_full(kernel, ts)) <= bound)


@pytest.mark.parametrize("setting", GROUPING_CASES)
def test_grouped_twirled_matches_full_quadrature(setting):
    for kernel in _grouping_kernels(setting):
        full, _, _ = _beta0_panels(lambda ts: oracles.rotated_fidelity_full(kernel, ts), 1e-9)
        assert abs(kernel.twirled(1e-9) - full) <= 1e-12


def test_grouping_merges_only_within_theta_tie():
    kernel = _near_tie_kernel()
    assert kernel._theta.size == 6 and kernel._group_theta.size == 4


@pytest.mark.parametrize("setting, p, n, most", [("lncy4", 0.3, 32, 8), ("fivequbit", 0.5, 64, 16)])
def test_code_settings_evaluate_on_few_groups(setting, p, n, most):
    kernel = RotatedFidelity(_sigma_rb(*SETTINGS[setting].build(p)))
    assert kernel._theta.size == n and kernel._group_theta.size <= most


def _twirled_choi(rho, ch, nodes, weights):
    """Choi matrix (input factor first) of the spectral twirled decoder
    averaged at quadrature nodes t_i with weights w_i, P = Z diag(w) Z^dagger."""
    petz = _petz_eigenbasis(rho, ch)
    z = np.exp(-0.5j * np.multiply.outer(petz[2], nodes))
    return choi_of_channel(_twirled_decoder(ch, petz, (z * weights) @ dag(z)).channel)


def _assert_choi_matches_oracle(rho, ch):
    kernel = RotatedFidelity(_sigma_rb(rho, ch))
    _, nodes, weights = _beta0_panels(kernel.value, 1e-9)
    spectral = _twirled_choi(rho, ch, nodes, weights)
    reference = oracles.twirled_choi_per_node(rho, ch, nodes, weights)
    assert np.linalg.norm(spectral - reference) <= 1e-12


def test_twirled_choi_matches_per_node_oracle_bitflip3():
    for p in GRID_21:  # p = 0 and p = 1 leave sigma_B with a kernel
        rho, ch = SETTINGS["bitflip3"].build(float(p))
        _assert_choi_matches_oracle(rho, ch)


def test_twirled_choi_matches_per_node_oracle_rank_deficient(rng):
    for _ in range(4):
        d_a = int(rng.integers(3, 5))
        rho = density_operator(oracles.random_state(rng, d_a, rank=d_a - 1))
        # one Kraus operator into a larger space: sigma_B has a kernel
        ch = kraus_channel(
            oracles.random_kraus(rng, d_a, d_a + 2, 1), label_in="A", label_out="B"
        )
        _assert_choi_matches_oracle(rho, ch)


# -- quadrature ---------------------------------------------------------------------


def test_beta0_normalization():
    assert abs(beta0_quadrature(lambda t: 1.0, 1e-12) - 1.0) <= 1e-10


def test_beta0_constant():
    c = 0.731
    assert beta0_quadrature(lambda t: c, 1e-11) == pytest.approx(c, abs=1e-10)


def test_beta0_gaussian_vs_trapezoid():
    quad = beta0_quadrature(lambda t: math.exp(-t * t), 1e-10)
    trap = oracles.beta0_trapezoid(lambda t: math.exp(-t * t))
    assert abs(quad - trap) <= 1e-9


def test_beta0_nodes_reproduce_value():
    value, nodes, weights = _beta0_adaptive(lambda t: math.cos(1.7 * t), 1e-10)
    assert abs(value - float(np.dot(weights, np.cos(1.7 * nodes)))) <= 1e-14


# -- twirled decoder ------------------------------------------------------------------


def test_twirled_identity_channel(rng):
    rho = density_operator(oracles.random_state(rng, 2))
    ch = kraus_channel([np.eye(2)])
    dec = build_twirled_petz(rho, ch, tol=1e-8)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-7)


def test_twirled_bitflip3_matches_closed_form():
    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.25, n=3)
    dec = build_twirled_petz(rho, ch, tol=1e-8)
    closed = fe_closed_form(_sigma_rb(rho, ch), "twirled")
    assert abs(fe_of_decoder(rho, ch, dec) - closed) <= 1e-7


def test_twirled_never_beats_petz(rng):
    for _ in range(3):
        rho, ch = _random_instance(rng, 2, 3)
        f_petz = fe_of_decoder(rho, ch, build_petz(rho, ch))
        f_tw = fe_of_decoder(rho, ch, build_twirled_petz(rho, ch, tol=1e-8))
        assert f_tw <= f_petz + 1e-9


@pytest.mark.parametrize("setting", EXACT_TWIRLED_CASES)
def test_twirled_decoder_attains_exact_twirled(setting):
    for rho, ch in _exact_twirled_instances(setting):
        exact = RotatedFidelity(_sigma_rb(rho, ch)).exact_twirled()
        assert abs(fe_of_decoder(rho, ch, build_twirled_petz(rho, ch)) - exact) <= 1e-13


def test_twirled_decoder_runs_no_quadrature(monkeypatch):
    def quadrature(*args, **kwargs):
        raise AssertionError("the twirled decoder evaluated F(t) at quadrature nodes")

    monkeypatch.setattr(RotatedFidelity, "value", quadrature)
    monkeypatch.setattr(decoders, "_beta0_panels", quadrature)
    for p in (np.arange(7) + 0.5) / 7:  # a decoders_bitflip3 pass at the default seed
        rho, ch = SETTINGS["bitflip3"].build(float(p))
        fe_of_decoder(rho, ch, build_twirled_petz(rho, ch))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_twirled_decoder_rejects_a_tol_that_disables_its_check(tol):
    rho, ch = SETTINGS["bitflip3"].build(0.25)
    with pytest.raises(InvalidParameter, match="tol"):
        build_twirled_petz(rho, ch, tol=tol)


# -- SW decoder ------------------------------------------------------------------------


def test_sw_identity_channel_on_code():
    rho = make_code_source("bitflip3")
    ch = make_channel("identity", 0.0, n=3)
    dec, _ = build_sw(rho, ch)
    assert fe_of_decoder(rho, ch, dec) == pytest.approx(1.0, abs=1e-8)


def test_sw_bitflip3_lower_bound_and_petz_gap():
    from petzlab.infomeasures import min_petz_mi_order2
    from petzlab.matcore import matrix_power_on_support

    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.25, n=3)
    dec, _ = build_sw(rho, ch)
    f_sw = fe_of_decoder(rho, ch, dec)
    srb = _sigma_rb(rho, ch)
    w = matrix_power_on_support(srb.marginal("R"), -1.0)
    assert f_sw >= 2.0 ** min_petz_mi_order2(srb, w) - 1e-9
    assert f_sw > fe_closed_form(srb, "petz") + 1e-6


def test_sw_matches_literal_construction(rng):
    for _ in range(4):
        rho, ch = _random_instance(rng, 3, 2)
        dec, s = build_sw(rho, ch)
        lit_kraus, lit_m, _, _ = oracles.sw_decoder_literal(rho, ch)
        # the attained overlap is the trace norm of the literal M
        assert abs(np.sum(s) - np.sum(np.linalg.svd(lit_m, compute_uv=False))) <= 1e-9
        # decoder actions agree on channel-output-supported inputs
        sigma_b = apply_channel(ch, rho.matrix)
        lit = kraus_channel(lit_kraus, label_in="B", label_out="A", check=True)
        probe = sigma_b @ oracles.random_psd(rng, ch.dim_out) @ sigma_b
        main_out = apply_channel(dec.channel, probe)
        lit_out = apply_channel(lit, probe)
        assert np.linalg.norm(main_out - lit_out) <= 1e-8
        f_main = fe_of_decoder(rho, ch, dec)
        f_lit = fe_of_decoder(rho, ch, Decoder_from(lit))
        assert abs(f_main - f_lit) <= 1e-10


def Decoder_from(channel):
    from petzlab.decoders import Decoder

    return Decoder(channel=channel, kind="custom")


def test_all_decoders_map_channel_output_to_valid_state(rng):
    rho, ch = _random_instance(rng, 3, 3)
    sigma_b = apply_channel(ch, rho.matrix)
    petz = build_petz(rho, ch)
    twirled = build_twirled_petz(rho, ch, tol=1e-7)
    sw, _ = build_sw(rho, ch)
    for dec in (petz, twirled, sw):
        out = apply_channel(dec.channel, sigma_b)
        assert abs(np.trace(out).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh((out + dag(out)) / 2)[0] >= -1e-9
    # the Petz decoder inverts the channel on the source exactly
    assert np.linalg.norm(apply_channel(petz.channel, sigma_b) - rho.matrix) <= 1e-9


# -- fe_of_decoder ---------------------------------------------------------------------


def test_fe_identity_on_identity(rng):
    rho = density_operator(oracles.random_state(rng, 2))
    ch = kraus_channel([np.eye(2)])
    assert fe_of_decoder(rho, ch, identity_decoder(2)) == pytest.approx(1.0)


def test_fe_no_decoder_amplitude_damping():
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("amplitude_damping", 0.36)
    assert fe_of_decoder(rho, ch, identity_decoder(2)) == pytest.approx(0.81, abs=1e-12)


def test_build_sw_runs_two_eighs_and_one_svd(monkeypatch):
    # the sigma_E and sigma_B eigendecompositions and the SVD of the overlap
    # N; no QR
    rho, ch = SETTINGS["lncy4"].build(0.5)
    counts = {"qr": 0, "svd": 0, "herm_eig": 0}
    for module, name in [(np.linalg, "qr"), (np.linalg, "svd"), (decoders, "herm_eig")]:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    build_sw(rho, ch)
    assert counts == {"qr": 0, "svd": 1, "herm_eig": 2}


def _assert_sw_matches_literal(rho, ch, rng):
    dec, _ = build_sw(rho, ch)
    lit_kraus, _, _, _ = oracles.sw_decoder_literal(rho, ch)
    lit = kraus_channel(lit_kraus, label_in="B", label_out="A", check=True)
    sigma_b = apply_channel(ch, rho.matrix)
    probe = sigma_b @ oracles.random_psd(rng, ch.dim_out) @ sigma_b
    diff = apply_channel(dec.channel, probe) - apply_channel(lit, probe)
    assert np.linalg.norm(diff) <= 1e-8
    f_lit = fe_of_decoder(rho, ch, Decoder_from(lit))
    assert abs(fe_of_decoder(rho, ch, dec) - f_lit) <= 1e-10


@pytest.mark.parametrize("p", GRID_21)
def test_sw_matches_literal_construction_bitflip3_grid(p, rng):
    _assert_sw_matches_literal(*SETTINGS["bitflip3"].build(float(p)), rng)


def test_sw_matches_literal_construction_lncy4(rng):
    _assert_sw_matches_literal(*SETTINGS["lncy4"].build(0.5), rng)


# -- SW polar factor against the factored construction it replaced ------------------------

SW_EXTREME_P = [1e-14, 1e-6, 1 - 1e-6, 1 - 1e-14]


def _sw_random_instances(rng, count=120):
    """Random (rho, N) with rho of random rank 1..d_A, a third each with: one
    to three Kraus operators; one Kraus operator into a larger output space
    (d_B > d_A); and Kraus lists longer than d_A*d_B."""
    for i in range(count):
        d_a, d_b = (int(d) for d in rng.integers(2, 5, size=2))
        rank = int(rng.integers(1, d_a + 1))
        if i % 3 == 0:
            n_kraus = int(rng.integers(1, 4))
        elif i % 3 == 1:
            d_b, n_kraus = d_a + int(rng.integers(1, 3)), 1
        else:
            n_kraus = d_a * d_b + int(rng.integers(1, 3))
        rho = density_operator(oracles.random_state(rng, d_a, rank=rank))
        yield rho, kraus_channel(oracles.random_kraus(rng, d_a, d_b, n_kraus))


def _sw_parity(rho, ch):
    """(Choi distance on supp sigma_B, F_e distance) between build_sw and the
    factored construction."""
    dec, _ = build_sw(rho, ch)
    old = kraus_channel(oracles.sw_construction(rho, ch).decoder_kraus(), "B", "A", check=False)
    _, u_b, _ = herm_eig(apply_channel(ch, rho.matrix)).split()

    def choi_on_support(c):
        return choi_of_channel(kraus_channel(c.kraus_ops @ u_b, check=False))

    choi_gap = np.linalg.norm(choi_on_support(dec.channel) - choi_on_support(old))
    fe_gap = abs(fe_of_decoder(rho, ch, dec) - fe_of_decoder(rho, ch, Decoder_from(old)))
    return choi_gap, fe_gap


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_sw_matches_factored_construction(setting):
    for p in [*GRID_21, *SW_EXTREME_P]:
        choi_gap, fe_gap = _sw_parity(*SETTINGS[setting].build(float(p)))
        assert choi_gap <= 1e-10, p
        assert fe_gap <= 1e-12, p


def test_sw_matches_factored_construction_random(rng):
    for rho, ch in _sw_random_instances(rng):
        choi_gap, fe_gap = _sw_parity(rho, ch)
        assert choi_gap <= 1e-10
        assert fe_gap <= 1e-12


def _assert_sw_attains_re_fidelity(rho, ch):
    # sigma_RE on the unpadded environment, as bench._complementary_petz
    comp = quantum._environment_channel(dilate(ch, 1), ch.label_in)
    sigma_re = channel_on_purification(purify(rho), comp)
    _, s = build_sw(rho, ch)
    assert np.all(np.diff(s) <= 0)
    assert abs(np.sum(s) ** 2 - 2.0 ** -sandwiched_mi_upup_half(sigma_re)) <= 1e-12


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_sw_singular_values_attain_re_fidelity(setting):
    # Not at SW_EXTREME_P: matcore.fidelity takes its square roots on the
    # support at RANK_CUT and drops up to 3.5e-7 of F there (lncy4, p = 1 - 1e-6).
    for p in GRID_21:
        _assert_sw_attains_re_fidelity(*SETTINGS[setting].build(float(p)))


def test_sw_singular_values_attain_re_fidelity_random(rng):
    for rho, ch in _sw_random_instances(rng):
        _assert_sw_attains_re_fidelity(rho, ch)


# -- SW on the Kraus-count environment ---------------------------------------------------


def _zero_padded(ch):
    """The same channel with zero Kraus operators appended up to d_A*d_B, so
    that build_sw dilates it into the padded environment of
    stinespring_dilation."""
    zero = np.zeros((ch.dim_out, ch.dim_in), dtype=complex)
    ops = list(ch.kraus_ops) + [zero] * (ch.dim_in * ch.dim_out - len(ch.kraus_ops))
    return kraus_channel(ops, label_in=ch.label_in, label_out=ch.label_out)


def _assert_sw_matches_padded(rho, ch, rng):
    dec, _ = build_sw(rho, ch)
    ref, _ = build_sw(rho, _zero_padded(ch))
    assert len(ref.channel.kraus_ops) == ch.dim_in * ch.dim_out
    env_floor = -(-ch.dim_out // purify(rho).rank)
    assert len(dec.channel.kraus_ops) == max(len(ch.kraus_ops), env_floor)
    assert abs(fe_of_decoder(rho, ch, dec) - fe_of_decoder(rho, ch, ref)) <= 1e-12
    sigma_b = apply_channel(ch, rho.matrix)
    probe = sigma_b @ oracles.random_psd(rng, ch.dim_out) @ sigma_b
    diff = apply_channel(dec.channel, probe) - apply_channel(ref.channel, probe)
    assert np.linalg.norm(diff) <= 1e-10


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4"])
def test_sw_kraus_count_environment_matches_padded_on_grid(setting, rng):
    for p in np.linspace(0.0, 1.0, 21):
        rho, ch = SETTINGS[setting].build(float(p))
        _assert_sw_matches_padded(rho, ch, rng)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_sw_kraus_count_environment_matches_padded_fivequbit(p, rng):
    rho, ch = SETTINGS["fivequbit"].build(p)
    _assert_sw_matches_padded(rho, ch, rng)


def test_sw_environment_floor_fits_input_block(rng):
    # one Kraus operator, rank 2, d_B = 8: the environment is padded to
    # ceil(8 / 2) = 4 slots so that |0>_{R'A'} tensor B fits inside R'E'
    rho, ch = SETTINGS["identity"].build(0.5)
    dec, _ = build_sw(rho, ch)
    assert (len(ch.kraus_ops), len(dec.channel.kraus_ops)) == (1, 4)
    _assert_sw_matches_padded(rho, ch, rng)


def test_sw_kraus_count_environment_matches_padded_random(rng):
    for d_a, d_b, rank, n_kraus in [(3, 2, 3, 2), (2, 3, 2, 2), (3, 4, 1, 2), (4, 3, 2, 3)]:
        rho = density_operator(oracles.random_state(rng, d_a, rank=rank))
        ch = kraus_channel(oracles.random_kraus(rng, d_a, d_b, n_kraus))
        _assert_sw_matches_padded(rho, ch, rng)


def test_sw_reduces_kraus_lists_longer_than_choi_rank(rng):
    rho = density_operator(oracles.random_state(rng, 2))
    ch = kraus_channel(oracles.random_kraus(rng, 2, 2, 6))
    dec, _ = build_sw(rho, ch)
    assert len(dec.channel.kraus_ops) == 4
    reduced = channel_from_choi(choi_of_channel(ch), (2, 2))
    ref, _ = build_sw(rho, _zero_padded(reduced))
    assert abs(fe_of_decoder(rho, ch, dec) - fe_of_decoder(rho, ch, ref)) <= 1e-12


# -- Kraus-trace fidelity and shared spectra against the paths they replace ---------------

FE_POINTS = {"bitflip3": GRID_21, "lncy4": GRID_21, "fivequbit": np.array([0.1, 0.5, 0.9])}


def _rank_deficient_instances(rng):
    """Random (rho, N) with rank-deficient rho and d_A != d_B; the single-Kraus
    channels into a larger space leave sigma_B with a kernel."""
    cases = [(3, 2, 2, 2), (2, 3, 1, 2), (4, 3, 2, 3), (3, 5, 2, 1), (4, 6, 3, 1)]
    for d_a, d_b, rank, n_kraus in cases:
        rho = density_operator(oracles.random_state(rng, d_a, rank=rank))
        yield rho, kraus_channel(oracles.random_kraus(rng, d_a, d_b, n_kraus))


def _assert_fe_matches_purification_oracle(rho, ch, rng):
    decs = [build_petz(rho, ch), build_twirled_petz(rho, ch), build_sw(rho, ch)[0]]
    if ch.dim_in == ch.dim_out:
        decs.append(identity_decoder(ch.dim_in))
    random_dec = kraus_channel(oracles.random_kraus(rng, ch.dim_out, ch.dim_in, 2), "B", "A")
    decs.append(Decoder_from(random_dec))
    for dec in decs:
        reference = oracles.fe_of_decoder_purified(rho, ch, dec)
        assert abs(fe_of_decoder(rho, ch, dec) - reference) <= 1e-12, dec.kind


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_fe_of_decoder_matches_purification_oracle(setting, rng):
    for p in FE_POINTS[setting]:  # the 21-point grids include p = 0 and p = 1
        rho, ch = SETTINGS[setting].build(float(p))
        _assert_fe_matches_purification_oracle(rho, ch, rng)


def test_fe_of_decoder_matches_purification_oracle_random(rng):
    for rho, ch in _rank_deficient_instances(rng):
        _assert_fe_matches_purification_oracle(rho, ch, rng)


def _choi(ops):
    """choi_of_channel as one matrix product: sum_k vec(K_k^T) vec(K_k^T)^dagger."""
    vecs = np.stack([k.T.reshape(-1) for k in ops])
    return vecs.T @ vecs.conj()


def _assert_rotated_choi_matches_literal(rho, ch):
    for t in (0.0, 0.7, -2.5):
        dec = build_rotated_petz(rho, ch, t)
        literal = oracles.rotated_petz_kraus_literal(rho, ch, t)
        kraus_channel(literal, "B", "A")  # the oracle's list is trace preserving
        diff = _choi(dec.channel.kraus_ops) - _choi(literal)
        assert np.linalg.norm(diff) <= 1e-12, t


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_rotated_petz_choi_matches_literal_powers(setting):
    for p in FE_POINTS[setting]:
        _assert_rotated_choi_matches_literal(*SETTINGS[setting].build(float(p)))


def test_rotated_petz_choi_matches_literal_powers_random(rng):
    for rho, ch in _rank_deficient_instances(rng):
        _assert_rotated_choi_matches_literal(rho, ch)


def _assert_twirled_matches_dense_oracle(rho, ch):
    # build_twirled_petz's exact beta0 average: phases kappa((theta_j - theta_k)/2)
    # with kappa(x) = x / sinh(x), and the kernel completion at weight 1
    (lam, _), (mu, _, _) = decoders._spectra(rho, ch)
    theta = (np.log(lam)[None, :] - np.log(mu)[:, None]).reshape(-1)
    x = np.subtract.outer(theta, theta) / 2
    phases = np.where(x == 0, 1.0, x / np.sinh(np.where(x == 0, 1.0, x)))
    dense = oracles.twirled_decoder_dense(rho, ch, phases, 1.0)
    dec = build_twirled_petz(rho, ch)
    diff = choi_of_channel(dec.channel) - choi_of_channel(dense)
    assert np.linalg.norm(diff) <= 1e-12
    reference = fe_of_decoder(rho, ch, Decoder_from(dense))
    assert abs(fe_of_decoder(rho, ch, dec) - reference) <= 1e-12


TWIRLED_PARITY_POINTS = {
    "bitflip3": [*GRID_21, 1e-14, 1e-10, 1 - 1e-10],
    "lncy4": [*GRID_21, 1e-14, 1e-10, 1 - 1e-10],
    "identity": [1e-14, 1e-10, 1 - 1e-10],
    "fivequbit": [0.5],
}


@pytest.mark.parametrize("setting", sorted(TWIRLED_PARITY_POINTS))
def test_twirled_decoder_matches_dense_choi_oracle(setting):
    for p in TWIRLED_PARITY_POINTS[setting]:
        _assert_twirled_matches_dense_oracle(*SETTINGS[setting].build(float(p)))


def test_twirled_decoder_matches_dense_choi_oracle_random(rng):
    for rho, ch in _rank_deficient_instances(rng):
        _assert_twirled_matches_dense_oracle(rho, ch)
