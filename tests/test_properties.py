"""Property tests on random (rho, N) pairs.

Sources have d_A in {2, 3, 4}, any rank, and support eigenvalues spread over
up to ten decades below the largest, two decades above RANK_CUT. Channels
map to d_B in {2, 3, 4} with one to three Kraus operators (more when
d_B < d_A needs them for an isometry).

The decoders that need no inverse power of a near-singular spectrum hold
over the whole range. So does the Petz and rotated-Petz decoder
materialization, since its Kraus sum is renormalized on supp sigma_B where
roundoff amplified by the condition number of sigma_B would otherwise break
trace preservation; the unitary channel at ratio 1e-10 that used to fail
keeps its own test. The lower_sw chain and the twirled chain down to
2^(-eps) are checked on one instance each, at ratios 1e-6 and 1e-10.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from petzlab import bench
from petzlab.decoders import (
    RotatedFidelity,
    build_petz,
    build_rotated_petz,
    build_sw,
    build_twirled_petz,
    fe_of_decoder,
)
from petzlab.infomeasures import epsilon_sw, min_petz_mi_order2
from petzlab.matcore import matrix_power_on_support
from petzlab.quantum import channel_on_purification, density_operator, kraus_channel, purify

CLOSED_FORM_TOL = 1e-8
CHAIN_SLACK = 1e-8
CONDITIONED_DECADES = -5.0  # smallest log10 eigenvalue ratio of the well-conditioned range

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


def _haar_columns(rng, rows, cols):
    """rows x cols matrix with orthonormal columns (QR of a complex Gaussian)."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _instance(seed, d_a, d_b, n_kraus, decades):
    """A source with support eigenvalues 10^decades (normalized) in a random
    basis, and a random channel with ``n_kraus`` Kraus operators."""
    rng = np.random.default_rng(seed)
    lam = 10.0 ** np.asarray(decades, dtype=float)
    basis = _haar_columns(rng, d_a, lam.size)
    rho = density_operator((basis * (lam / lam.sum())) @ basis.conj().T)
    v = _haar_columns(rng, n_kraus * d_b, d_a).reshape(n_kraus, d_b, d_a)
    return rho, kraus_channel(list(v), label_in="A", label_out="B")


@st.composite
def instances(draw, min_decade=-10.0):
    d_a = draw(st.integers(2, 4))
    d_b = draw(st.integers(2, 4))
    n_kraus = max(draw(st.integers(1, 3)), -(-d_a // d_b))
    rank = draw(st.integers(1, d_a))
    tail = draw(st.lists(st.floats(min_decade, 0.0), min_size=rank - 1, max_size=rank - 1))
    return _instance(draw(st.integers(0, 2**32 - 1)), d_a, d_b, n_kraus, [0.0] + tail)


def _lower_bounds(sigma_rb):
    """(lower_sw, 2^(-eps)) as the sweep computes them."""
    w_r = matrix_power_on_support(sigma_rb.marginal("R"), -1.0)
    return 2.0 ** min_petz_mi_order2(sigma_rb, w_r), 2.0 ** -epsilon_sw(sigma_rb)


@PROPERTY_SETTINGS
@given(instances())
def test_twirled_and_sw_decoders_build_near_rank_cut(instance):
    rho, ch = instance
    sigma_rb = channel_on_purification(purify(rho), ch)
    kernel = RotatedFidelity(sigma_rb)
    build_twirled_petz(rho, ch)
    sw = fe_of_decoder(rho, ch, build_sw(rho, ch)[0])
    w_r = matrix_power_on_support(sigma_rb.marginal("R"), -1.0)
    assert kernel.petz() >= kernel.twirled(bench.QUAD_TOL) - CHAIN_SLACK
    assert sw >= 2.0 ** min_petz_mi_order2(sigma_rb, w_r) - CHAIN_SLACK
    assert abs(kernel.petz() - bench._complementary_petz(rho, ch)) <= bench.THM2_TOL


@PROPERTY_SETTINGS
@given(instances(CONDITIONED_DECADES), st.floats(-4.0, 4.0))
def test_closed_forms_match_simulated_decoders(instance, t):
    rho, ch = instance
    kernel = RotatedFidelity(channel_on_purification(purify(rho), ch))
    petz = fe_of_decoder(rho, ch, build_petz(rho, ch))
    rotated = fe_of_decoder(rho, ch, build_rotated_petz(rho, ch, t))
    assert abs(petz - kernel.petz()) <= CLOSED_FORM_TOL
    assert abs(rotated - kernel.value(t)) <= CLOSED_FORM_TOL
    assert abs(petz - bench._complementary_petz(rho, ch)) <= bench.THM2_TOL


@PROPERTY_SETTINGS
@given(instances(), st.floats(-4.0, 4.0))
def test_petz_decoders_match_closed_forms_near_rank_cut(instance, t):
    rho, ch = instance
    kernel = RotatedFidelity(channel_on_purification(purify(rho), ch))
    petz = fe_of_decoder(rho, ch, build_petz(rho, ch))
    rotated = fe_of_decoder(rho, ch, build_rotated_petz(rho, ch, t))
    assert abs(petz - kernel.petz()) <= CLOSED_FORM_TOL
    assert abs(rotated - kernel.value(t)) <= CLOSED_FORM_TOL


@PROPERTY_SETTINGS
@given(instances(CONDITIONED_DECADES))
def test_bound_chains_hold(instance):
    rho, ch = instance
    sigma_rb = channel_on_purification(purify(rho), ch)
    kernel = RotatedFidelity(sigma_rb)
    sw = fe_of_decoder(rho, ch, build_sw(rho, ch)[0])
    lower_sw, lower = _lower_bounds(sigma_rb)
    petz, twirled = kernel.petz(), kernel.twirled(bench.QUAD_TOL)
    assert petz >= twirled - CHAIN_SLACK
    assert twirled >= lower - CHAIN_SLACK
    assert sw >= lower_sw - CHAIN_SLACK
    assert lower_sw >= lower - CHAIN_SLACK


# -- below the well-conditioned range, one instance each -------------------------------


def test_petz_decoder_builds_for_unitary_channel_at_ratio_1e_10():
    rho, ch = _instance(0, 2, 2, 1, (0.0, -10.0))
    build_petz(rho, ch)


def test_lower_sw_chain_for_unitary_channel_at_ratio_1e_6():
    rho, ch = _instance(3, 2, 2, 1, (0.0, -6.0))
    lower_sw, lower = _lower_bounds(channel_on_purification(purify(rho), ch))
    assert lower_sw >= lower - CHAIN_SLACK


def test_twirled_chain_at_ratio_1e_10():
    rho, ch = _instance(2, 2, 3, 2, (0.0, -10.0))
    sigma_rb = channel_on_purification(purify(rho), ch)
    _, lower = _lower_bounds(sigma_rb)
    assert RotatedFidelity(sigma_rb).twirled(bench.QUAD_TOL) >= lower - CHAIN_SLACK
