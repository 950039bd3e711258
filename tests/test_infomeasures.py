import math

import numpy as np
import pytest

from petzlab.bench import SETTINGS
from petzlab.errors import InvalidOrder, InvalidParameter, NegativeEpsilon, SupportViolation
from petzlab.infomeasures import (
    entropy,
    entropy_derived,
    epsilon_sw,
    min_petz_mi_order2,
    petz_divergence,
    relative_entropy,
    sandwiched_divergence,
    sandwiched_mi_up,
    sandwiched_mi_upup_half,
    singly_min_petz_mi_half,
    sw_original_bound,
)
from petzlab.matcore import fidelity, kron, matrix_power_on_support, partial_trace, psd_sqrt
from petzlab.quantum import (
    DensityOperator,
    channel_on_purification,
    complementary_channel,
    density_operator,
    kraus_channel,
    make_channel,
    apply_channel,
    purify,
)

import oracles


def _bipartite(rng, d_r, d_b, labels=("R", "B")):
    return DensityOperator(
        matrix=oracles.random_state(rng, d_r * d_b), dims=(d_r, d_b), labels=labels
    )


def _max_entangled(d):
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1 / math.sqrt(d)
    return np.outer(v, v.conj())


# -- entropies -----------------------------------------------------------------


def test_entropy_maximally_mixed():
    rho = np.eye(4) / 4
    assert entropy(rho) == pytest.approx(2.0)
    assert entropy(rho, alpha=2) == pytest.approx(2.0)
    assert entropy(rho, alpha=0.5) == pytest.approx(2.0)


def test_entropy_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert entropy(rho) == pytest.approx(0.0, abs=1e-12)
    assert entropy(rho, alpha=2) == pytest.approx(0.0, abs=1e-12)


def test_renyi_two_example():
    rho = np.diag([0.75, 0.25])
    assert entropy(rho, alpha=2) == pytest.approx(-math.log2(10 / 16))


def test_entropy_invalid_order():
    with pytest.raises(InvalidOrder):
        entropy(np.eye(2) / 2, alpha=1.0)


def test_derived_product_mutual_information(rng):
    rho = density_operator(
        kron(oracles.random_state(rng, 2), oracles.random_state(rng, 3)),
        dims=(2, 3),
        labels=("A", "B"),
    )
    assert entropy_derived(rho, "mutual") == pytest.approx(0.0, abs=1e-10)


def test_derived_coherent_information_bell():
    rho = DensityOperator(matrix=_max_entangled(2), dims=(2, 2), labels=("A", "B"))
    assert entropy_derived(rho, "coherent") == pytest.approx(1.0, abs=1e-10)


def test_derived_entropy_rejects_an_unknown_kind():
    rho = DensityOperator(matrix=_max_entangled(2), dims=(2, 2), labels=("A", "B"))
    with pytest.raises(InvalidParameter, match="bogus"):
        entropy_derived(rho, "bogus")


def test_derived_mutual_matches_eigen_oracle(rng):
    rho = _bipartite(rng, 2, 2, labels=("A", "B"))
    h = lambda m: float(
        -sum(w * math.log2(w) for w in np.linalg.eigvalsh(m) if w > 1e-14)
    )
    expected = h(rho.marginal("A")) + h(rho.marginal("B")) - h(rho.matrix)
    assert entropy_derived(rho, "mutual") == pytest.approx(expected, abs=1e-10)


# -- divergences ----------------------------------------------------------------


def test_petz_self_divergence(rng):
    rho = oracles.random_state(rng, 3)
    assert petz_divergence(rho, rho, 2).value == pytest.approx(0.0, abs=1e-10)


def test_petz_kernel_violation_is_infinite():
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    res = petz_divergence(zero, one, 2)
    assert math.isinf(res.value)
    assert res.support_condition == "support_violated"


@pytest.mark.parametrize("divergence", [petz_divergence, sandwiched_divergence])
def test_renyi_support_conditions(divergence):
    half = np.diag([0.5, 0.5])
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    # not absolutely continuous but not orthogonal: finite only below order 1
    below = divergence(half, zero, 0.5)
    assert below.support_condition == "not_orthogonal"
    assert below.value == pytest.approx(1.0)
    for rho, sigma, alpha in [(half, zero, 2), (one, zero, 0.5)]:
        res = divergence(rho, sigma, alpha)
        assert (res.value, res.support_condition) == (math.inf, "support_violated")
    above = divergence(zero, half, 2)
    assert above.support_condition == "absolutely_continuous"
    assert above.value == pytest.approx(1.0)


def test_petz_order_two_example():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([0.25, 0.75])
    expected = math.log2(0.25 * 4 + 0.25 * 4 / 3)
    assert petz_divergence(rho, sigma, 2).value == pytest.approx(expected)


def test_petz_alpha_one_routes_to_relative_entropy(rng):
    rho = oracles.random_state(rng, 3)
    sigma = oracles.random_state(rng, 3)
    assert petz_divergence(rho, sigma, 1).value == pytest.approx(
        relative_entropy(rho, sigma).value
    )


def test_sandwiched_self_divergence(rng):
    rho = oracles.random_state(rng, 3)
    assert sandwiched_divergence(rho, rho, 2).value == pytest.approx(0.0, abs=1e-10)


def test_sandwiched_half_is_fidelity(rng):
    for _ in range(5):
        rho = oracles.random_state(rng, 3)
        sigma = oracles.random_state(rng, 3)
        lhs = sandwiched_divergence(rho, sigma, 0.5).value
        assert abs(lhs + 2 * math.log2(fidelity(rho, sigma))) <= 1e-9


def test_sandwiched_equals_petz_for_commuting():
    rho = np.diag([0.2, 0.8])
    sigma = np.diag([0.6, 0.4])
    assert sandwiched_divergence(rho, sigma, 2).value == pytest.approx(
        petz_divergence(rho, sigma, 2).value
    )


def test_alpha_to_one_continuity(rng):
    rho = oracles.random_state(rng, 3)
    sigma = oracles.random_state(rng, 3)
    target = relative_entropy(rho, sigma).value
    for alpha in (1 - 1e-4, 1 + 1e-4):
        assert abs(petz_divergence(rho, sigma, alpha).value - target) <= 1e-3
        assert abs(sandwiched_divergence(rho, sigma, alpha).value - target) <= 1e-3
    # commuting pair as well
    rho_c, sigma_c = np.diag([0.3, 0.7]), np.diag([0.55, 0.45])
    target_c = relative_entropy(rho_c, sigma_c).value
    for alpha in (1 - 1e-4, 1 + 1e-4):
        assert abs(petz_divergence(rho_c, sigma_c, alpha).value - target_c) <= 1e-3


def test_sandwiched_rank_deficient_commuting_closed_form(rng):
    """Commuting rho (rank 2) and sigma (rank 3) on C^4 in a random frame:
    the sandwiched divergence is log2(sum p^alpha q^(1-alpha)) / (alpha - 1)
    over the support of rho."""
    for _ in range(10):
        p = np.zeros(4)
        q = np.zeros(4)
        p[:2] = rng.dirichlet(np.ones(2))
        q[:3] = rng.dirichlet(np.ones(3))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.linalg.qr(g)[0]
        rho = u @ np.diag(p) @ u.conj().T
        sigma = u @ np.diag(q) @ u.conj().T
        for alpha in (0.3, 0.5, 0.8, 2):
            closed = np.log2(np.sum(p[:2] ** alpha * q[:2] ** (1 - alpha))) / (alpha - 1)
            assert abs(sandwiched_divergence(rho, sigma, alpha).value - closed) <= 1e-12


def test_sandwiched_monotone_in_alpha(rng):
    for _ in range(5):
        rho = oracles.random_state(rng, 3)
        sigma = oracles.random_state(rng, 3)
        d_half = sandwiched_divergence(rho, sigma, 0.5).value
        d_one = relative_entropy(rho, sigma).value
        d_two = sandwiched_divergence(rho, sigma, 2).value
        assert d_half <= d_one + 1e-9
        assert d_one <= d_two + 1e-9


def test_relative_entropy_self():
    rho = np.diag([0.4, 0.6])
    assert relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_non_normalized_second_argument():
    assert relative_entropy(np.eye(2) / 2, 2 * np.eye(2)).value == pytest.approx(-2.0)


def test_relative_entropy_data_processing(rng):
    for _ in range(5):
        rho = oracles.random_state(rng, 2)
        sigma = oracles.random_state(rng, 2)
        ch = kraus_channel(oracles.random_kraus(rng, 2, 2, 2))
        before = relative_entropy(rho, sigma).value
        after = relative_entropy(apply_channel(ch, rho), apply_channel(ch, sigma)).value
        assert before >= after - 1e-9


# -- minimized mutual informations ----------------------------------------------


def test_min_petz_order2_product_case():
    sigma_r = np.eye(2) / 2
    sigma_b = np.diag([0.7, 0.3])
    state = DensityOperator(
        matrix=kron(sigma_r, sigma_b), dims=(2, 2), labels=("R", "B")
    )
    w = matrix_power_on_support(sigma_r, -1.0)
    # closed form reduces to log tr[sigma_R^3] = -2 for the maximally mixed marginal
    assert min_petz_mi_order2(state, w) == pytest.approx(-2.0, abs=1e-10)


def test_min_petz_order2_matches_grid(rng):
    state = _bipartite(rng, 2, 2)
    sigma_r = state.marginal("R")
    w = matrix_power_on_support(sigma_r, -1.0)
    closed = min_petz_mi_order2(state, w)

    w_inv_half = kron(psd_sqrt(sigma_r), np.eye(2))
    y = partial_trace(w_inv_half @ state.matrix @ state.matrix @ w_inv_half, (2, 2), 1)

    def objective(tau):
        tau_inv = matrix_power_on_support(tau, -1.0)
        return float(np.log2(np.trace(y @ tau_inv).real))

    brute = oracles.minimize_over_qubit(objective)
    assert abs(closed - brute) <= 1e-6


def test_min_petz_order2_maximally_entangled_grid():
    state = DensityOperator(matrix=_max_entangled(2), dims=(2, 2), labels=("R", "B"))
    w = 2.0 * np.eye(2)  # sigma_R^{-1} for the maximally mixed marginal
    closed = min_petz_mi_order2(state, w)

    def objective(tau):
        return petz_divergence(state.matrix, kron(w, tau), 2).value

    brute = oracles.minimize_over_qubit(objective)
    assert abs(closed - brute) <= 1e-6


def test_min_petz_order2_support_violation():
    state = DensityOperator(matrix=_max_entangled(2), dims=(2, 2), labels=("R", "B"))
    with pytest.raises(SupportViolation):
        min_petz_mi_order2(state, np.diag([1.0, 0.0]))


def test_min_petz_order2_pure_b_marginal(rng):
    # sigma_B pure: the only feasible tau is sigma_B itself
    psi_r = oracles.random_state(rng, 2)
    state = DensityOperator(
        matrix=kron(psi_r, np.diag([1.0, 0.0]).astype(complex)),
        dims=(2, 2),
        labels=("R", "B"),
    )
    w = matrix_power_on_support(state.marginal("R"), -1.0)
    closed = min_petz_mi_order2(state, w)
    direct = petz_divergence(
        state.matrix, kron(w, np.diag([1.0, 0.0])), 2
    ).value
    assert abs(closed - direct) <= 1e-9


@pytest.mark.parametrize("setting", ["lncy4", "fivequbit"])
@pytest.mark.parametrize("p", [1e-3, 1e-2])
def test_lower_sw_matches_uncut_oracle_at_small_noise(setting, p):
    # Y's spectrum is squared amplitudes: a cut of Y at RANK_CUT loses up to
    # 3.5e-6 of lower_sw at these points
    rho, ch = SETTINGS[setting].build(p)
    state = channel_on_purification(purify(rho), ch)
    w = matrix_power_on_support(state.marginal("R"), -1.0)
    closed = 2.0 ** min_petz_mi_order2(state, w)
    assert abs(closed - 2.0 ** oracles.min_petz_mi_order2_no_cut(state, w)) <= 1e-8


def test_singly_min_half_product(rng):
    state = density_operator(
        kron(oracles.random_state(rng, 2), oracles.random_state(rng, 2)),
        dims=(2, 2),
        labels=("R", "E"),
    )
    assert singly_min_petz_mi_half(state) == pytest.approx(0.0, abs=1e-9)


def test_singly_min_half_matches_grid(rng):
    state = _bipartite(rng, 2, 2, labels=("R", "E"))
    closed = singly_min_petz_mi_half(state)
    sigma_r = state.marginal("R")

    def objective(tau):
        return petz_divergence(state.matrix, kron(sigma_r, tau), 0.5).value

    brute = oracles.minimize_over_qubit(objective)
    assert abs(closed - brute) <= 1e-6


def test_sandwiched_up_product_case():
    sigma_r = np.eye(2) / 2
    sigma_b = np.diag([0.7, 0.3])
    state = DensityOperator(
        matrix=kron(sigma_r, sigma_b), dims=(2, 2), labels=("R", "B")
    )
    w = matrix_power_on_support(sigma_r, -1.0)
    assert sandwiched_mi_up(state, w) == pytest.approx(-2.0, abs=1e-10)


def test_sandwiched_up_norm_expression(rng):
    state = _bipartite(rng, 2, 3)
    sigma_r = state.marginal("R")
    sigma_b = state.marginal("B")
    w = matrix_power_on_support(sigma_r, -1.0)
    value = sandwiched_mi_up(state, w)
    sandwich = kron(psd_sqrt(sigma_r), matrix_power_on_support(sigma_b, -0.5))
    half = psd_sqrt(state.matrix)
    inner = half @ sandwich @ half
    expected = np.log2(np.trace(inner.conj().T @ inner).real)
    assert abs(value - expected) <= 1e-10


def test_sandwiched_up_pure_product():
    pure = np.diag([1.0, 0.0]).astype(complex)
    state = DensityOperator(matrix=kron(pure, pure), dims=(2, 2), labels=("R", "B"))
    w = matrix_power_on_support(pure, -1.0)
    assert sandwiched_mi_up(state, w) == pytest.approx(0.0, abs=1e-10)


def test_upup_half_product(rng):
    state = density_operator(
        kron(oracles.random_state(rng, 2), oracles.random_state(rng, 3)),
        dims=(2, 3),
        labels=("R", "E"),
    )
    assert sandwiched_mi_upup_half(state) == pytest.approx(0.0, abs=1e-9)


def test_upup_half_maximally_entangled():
    state = DensityOperator(matrix=_max_entangled(2), dims=(2, 2), labels=("R", "E"))
    assert sandwiched_mi_upup_half(state) == pytest.approx(2.0, abs=1e-9)


def test_half_order_mutual_informations_both_reported(rng):
    # No universal ordering exists between the two order-1/2 quantities
    # (the minimization and the sandwiched/Petz gap pull in opposite
    # directions), so only nonnegativity is asserted.
    signs = set()
    for _ in range(20):
        state = _bipartite(rng, 2, 2, labels=("R", "E"))
        upup = sandwiched_mi_upup_half(state)
        updown = singly_min_petz_mi_half(state)
        assert upup >= -1e-9
        assert updown >= -1e-9
        signs.add(upup >= updown)
    assert signs  # both quantities computed throughout


# -- epsilon and the original bound ----------------------------------------------


def test_epsilon_sw_perfect_recovery():
    from petzlab.quantum import make_code_source

    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.0, n=3)
    srb = channel_on_purification(purify(rho), ch)
    assert abs(epsilon_sw(srb)) <= 1e-8


def test_epsilon_sw_entropy_route():
    from petzlab.quantum import make_code_source

    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.25, n=3)
    srb = channel_on_purification(purify(rho), ch)
    value = epsilon_sw(srb)
    # oracle: H(R|B) - H(R|A) with H(R|A) = -H(R) for the purified source
    h_r_given_b = entropy_derived(srb, "conditional", cut="R")
    h_r = entropy(srb.marginal("R"))
    assert abs(value - (h_r_given_b + h_r)) <= 1e-9


def test_epsilon_sw_product_case(rng):
    state = density_operator(
        kron(np.eye(2) / 2, oracles.random_state(rng, 2)),
        dims=(2, 2),
        labels=("R", "B"),
    )
    assert epsilon_sw(state) == pytest.approx(2.0, abs=1e-9)


def test_sw_original_bound_values():
    assert sw_original_bound(0.0) == pytest.approx(1.0)
    assert sw_original_bound(2 / math.log(2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NegativeEpsilon):
        sw_original_bound(-1e-3)


def test_exponential_dominates_original_bound():
    for eps in np.linspace(0.0, 10.0, 1000):
        assert 2 ** (-eps / 2) >= sw_original_bound(eps) - 1e-12


# -- duality identities -----------------------------------------------------------


def test_duality_identities(rng):
    for _ in range(10):
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rho = density_operator(oracles.random_state(rng, d_a))
        ch = kraus_channel(
            oracles.random_kraus(rng, d_a, d_b, 2), label_in="A", label_out="B"
        )
        pur = purify(rho)
        srb = channel_on_purification(pur, ch)
        sre = channel_on_purification(pur, complementary_channel(ch))
        w = matrix_power_on_support(srb.marginal("R"), -1.0)
        assert abs(
            min_petz_mi_order2(srb, w) + sandwiched_mi_upup_half(sre)
        ) <= 1e-8
        assert abs(
            sandwiched_mi_up(srb, w) + singly_min_petz_mi_half(sre)
        ) <= 1e-8
