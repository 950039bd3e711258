import numpy as np
import pytest

from petzlab.bench import SETTINGS
from petzlab.decoders import build_petz, build_sw, build_twirled_petz, fe_of_decoder
from petzlab.matcore import dag, herm_part, kron, partial_trace
from petzlab.optdec import (
    SdpProblem,
    _schur_matrix,
    _schur_solve,
    bk_bracket_check,
    build_fidelity_sdp,
    lift_choi,
    optimal_fidelity,
    reduce_problem,
    solve_sdp,
)
from petzlab.quantum import (
    choi_of_channel,
    density_operator,
    kraus_channel,
    make_channel,
    make_code_source,
)

import oracles


def _random_instance(rng, d_a, d_b):
    rho = density_operator(oracles.random_state(rng, d_a))
    ch = kraus_channel(
        oracles.random_kraus(rng, d_a, d_b, 2), label_in="A", label_out="B"
    )
    return rho, ch


# -- objective construction -------------------------------------------------------


def test_objective_is_hermitian(rng):
    rho, ch = _random_instance(rng, 3, 2)
    prob = build_fidelity_sdp(rho, ch)
    assert np.linalg.norm(prob.objective - dag(prob.objective)) <= 1e-12


def test_identity_channel_objective_attains_one(rng):
    rho = density_operator(oracles.random_state(rng, 2, rank=1))
    ch = kraus_channel([np.eye(2)])
    prob = build_fidelity_sdp(rho, ch)
    identity_choi = choi_of_channel(kraus_channel([np.eye(2)], label_in="B", label_out="A"))
    assert np.trace(identity_choi @ prob.objective).real == pytest.approx(1.0, abs=1e-10)
    assert solve_sdp(prob).primal == pytest.approx(1.0, abs=1e-6)


def test_objective_matches_simulation_on_random_decoders(rng):
    # the builder also validates internally; this is an external spot check
    rho, ch = _random_instance(rng, 3, 4)
    prob = build_fidelity_sdp(rho, ch)
    for _ in range(5):
        dec_ch = kraus_channel(
            oracles.random_kraus(rng, 4, 3, 2), label_in="B", label_out="A"
        )
        from petzlab.decoders import Decoder

        dec = Decoder(channel=dec_ch, kind="custom")
        lhs = np.trace(choi_of_channel(dec_ch) @ prob.objective).real
        rhs = fe_of_decoder(rho, ch, dec)
        assert abs(lhs - rhs) <= 1e-9


def test_depolarizing_objective_constant_on_feasible_set(rng):
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("depolarizing", 1.0)
    prob = build_fidelity_sdp(rho, ch)
    for _ in range(5):
        dec_ch = kraus_channel(
            oracles.random_kraus(rng, 2, 2, 3), label_in="B", label_out="A"
        )
        val = np.trace(choi_of_channel(dec_ch) @ prob.objective).real
        assert val == pytest.approx(0.25, abs=1e-10)


# -- solver -------------------------------------------------------------------------


def test_toy_sdp():
    # maximize tr[X diag(1,0)] s.t. X >= 0, tr X = 1
    prob = SdpProblem(objective=np.diag([1.0, 0.0]).astype(complex), dim_in=1, dim_out=2)
    sol = solve_sdp(prob)
    assert sol.primal == pytest.approx(1.0, abs=1e-7)
    assert sol.gap <= 1e-7 * 2


def test_solver_depolarizing_value():
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("depolarizing", 1.0)
    sol = solve_sdp(build_fidelity_sdp(rho, ch))
    assert sol.primal == pytest.approx(0.25, abs=1e-7)


@pytest.mark.parametrize("p", [0.9016513812394814, 0.972603605117725])
def test_solver_converges_where_lapack_eigh_broke_down(p):
    # At these lncy4 points LAPACK's eigh failed on an NT-scaling product and
    # the solve raised NumericalBreakdown before herm_eig retried it.
    rho = make_code_source("lncy4")
    ch = make_channel("amplitude_damping", p, n=4)
    sol = solve_sdp(reduce_problem(rho, ch)[0], tol=1e-7)
    assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal))
    f_petz = fe_of_decoder(rho, ch, build_petz(rho, ch))
    assert sol.primal**2 - 1e-6 <= f_petz <= sol.primal + 1e-6


def test_solver_certificates(rng):
    rho, ch = _random_instance(rng, 3, 3)
    prob = build_fidelity_sdp(rho, ch)
    sol = solve_sdp(prob, tol=1e-8)
    # weak duality and feasibility certificates
    assert sol.dual >= sol.primal - 1e-7
    assert np.linalg.eigvalsh(herm_part(sol.x))[0] >= -1e-8
    tr_out = partial_trace(sol.x, (prob.dim_in, prob.dim_out), keep=0)
    assert np.linalg.norm(tr_out - np.eye(prob.dim_in)) <= 1e-7
    assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal))
    # dual slack is PSD
    slack = kron(sol.y, np.eye(prob.dim_out)) - prob.objective
    assert np.linalg.eigvalsh(herm_part(slack))[0] >= -1e-7


# -- reduction ------------------------------------------------------------------------


def test_reduction_matches_full_bitflip3():
    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.25, n=3)
    full = solve_sdp(build_fidelity_sdp(rho, ch), tol=1e-8).primal
    reduced_prob, _ = reduce_problem(rho, ch)
    reduced = solve_sdp(reduced_prob, tol=1e-8).primal
    assert abs(full - reduced) <= 1e-6


def test_reduction_identity_channel_dims():
    rho = make_code_source("bitflip3")
    ch = make_channel("identity", 0.0, n=3)
    prob, emb = reduce_problem(rho, ch)
    assert (emb.v_out.shape[1], emb.v_in.shape[1]) == (2, 2)
    assert solve_sdp(prob).primal == pytest.approx(1.0, abs=1e-6)


def test_reduction_fivequbit_dimensions():
    rho = make_code_source("fivequbit")
    ch = make_channel("amplitude_damping", 0.1, n=5)
    prob, emb = reduce_problem(rho, ch)
    assert prob.dim <= 64
    assert emb.v_in.shape == (32, 32)
    assert emb.v_out.shape == (32, 2)


def test_reduction_soundness_random(rng):
    for _ in range(3):
        rho, ch = _random_instance(rng, 3, 2)
        full = solve_sdp(build_fidelity_sdp(rho, ch), tol=1e-8).primal
        prob, _ = reduce_problem(rho, ch)
        reduced = solve_sdp(prob, tol=1e-8).primal
        assert abs(full - reduced) <= 1e-6


def test_lifted_solution_feasible_for_full_problem(rng):
    rho, ch = _random_instance(rng, 3, 2)
    prob_red, emb = reduce_problem(rho, ch)
    sol = solve_sdp(prob_red, tol=1e-8)
    full_prob = build_fidelity_sdp(rho, ch)
    lifted = lift_choi(sol.x, emb)
    tr_out = partial_trace(lifted, (full_prob.dim_in, full_prob.dim_out), keep=0)
    assert np.linalg.norm(tr_out - np.eye(full_prob.dim_in)) <= 1e-7
    assert np.linalg.eigvalsh(herm_part(lifted))[0] >= -1e-8
    lifted_value = np.trace(lifted @ full_prob.objective).real
    assert abs(lifted_value - sol.primal) <= 1e-8


# -- decoder feasibility triangle -------------------------------------------------------


def test_explicit_decoders_feasible_and_consistent(rng):
    rho, ch = _random_instance(rng, 3, 3)
    prob = build_fidelity_sdp(rho, ch)
    sol = solve_sdp(prob, tol=1e-8)
    for builder in (
        lambda: build_petz(rho, ch),
        lambda: build_twirled_petz(rho, ch, tol=1e-7),
        lambda: build_sw(rho, ch)[0],
    ):
        dec = builder()
        choi = choi_of_channel(dec.channel)
        tr_out = partial_trace(choi, (prob.dim_in, prob.dim_out), keep=0)
        assert np.linalg.norm(tr_out - np.eye(prob.dim_in)) <= 1e-8
        objective = np.trace(choi @ prob.objective).real
        simulated = fe_of_decoder(rho, ch, dec)
        assert abs(objective - simulated) <= 1e-8
        assert objective <= sol.primal + 1e-6


# -- optimal fidelity and the bracket ----------------------------------------------------


def test_optimal_fidelity_perfect_recovery():
    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.0, n=3)
    assert optimal_fidelity(rho, ch) == pytest.approx(1.0, abs=1e-6)


def test_optimal_between_petz_and_its_sqrt():
    from petzlab.decoders import fe_closed_form
    from petzlab.quantum import channel_on_purification, purify

    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.25, n=3)
    f_petz = fe_closed_form(channel_on_purification(purify(rho), ch), "petz")
    f_opt = optimal_fidelity(rho, ch)
    assert f_petz - 1e-7 <= f_opt <= np.sqrt(f_petz) + 1e-7


def test_optimal_dominates_sw_lncy4():
    rho = make_code_source("lncy4")
    ch = make_channel("amplitude_damping", 0.2, n=4)
    dec, _ = build_sw(rho, ch)
    f_sw = fe_of_decoder(rho, ch, dec)
    assert optimal_fidelity(rho, ch) >= f_sw - 1e-7


def test_bracket_identity_channel(rng):
    rho = density_operator(oracles.random_state(rng, 2))
    ch = kraus_channel([np.eye(2)])
    report = bk_bracket_check(rho, ch)
    assert report.f_opt == pytest.approx(1.0, abs=1e-6)
    assert report.f_petz == pytest.approx(1.0, abs=1e-8)
    assert report.holds


def test_bracket_depolarizing():
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("depolarizing", 1.0)
    report = bk_bracket_check(rho, ch)
    assert report.f_opt == pytest.approx(0.25, abs=1e-7)
    assert report.f_petz == pytest.approx(0.25, abs=1e-10)
    assert report.f_opt_squared == pytest.approx(1 / 16, abs=1e-6)


def test_bracket_random_instances(rng):
    for _ in range(3):
        rho, ch = _random_instance(rng, 3, 2)
        report = bk_bracket_check(rho, ch, tol=1e-6)
        assert report.holds


# -- one real Schur solve per iteration ---------------------------------------------------


def test_schur_solve_real_form_matches_complex_solve(rng):
    for d_b, d_a in [(1, 3), (2, 2), (3, 2), (4, 3)]:
        n = d_b * d_a
        w = oracles.random_psd(rng, n) + 0.1 * np.eye(n)
        lc = _schur_matrix(w, (d_b, d_a))
        rhs = np.stack([oracles.random_hermitian(rng, d_b) for _ in range(3)])
        # an anti-Hermitian part of a right-hand side is ignored
        skew = 1j * oracles.random_hermitian(rng, d_b)
        dy = _schur_solve(lc, rhs + np.stack([skew, 0 * skew, 0 * skew]))
        for k in range(3):
            ref = np.linalg.solve(lc, rhs[k].reshape(-1)).reshape(d_b, d_b)
            assert np.linalg.norm(dy[k] - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.array_equal(dy[k], dag(dy[k]))


def _assert_matches_two_solve_newton(prob):
    sol = solve_sdp(prob)
    ref = oracles.solve_sdp_two_solves(prob)
    assert sol.iterations == ref.iterations
    assert abs(sol.primal - ref.primal) <= 1e-9
    assert abs(sol.dual - ref.dual) <= 1e-9


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4"])
def test_solve_sdp_matches_two_solve_newton_on_grid(setting):
    for p in np.linspace(0.0, 1.0, 21):
        prob, _ = reduce_problem(*SETTINGS[setting].build(float(p)))
        _assert_matches_two_solve_newton(prob)


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_solve_sdp_matches_two_solve_newton_fivequbit(p):
    prob, _ = reduce_problem(*SETTINGS["fivequbit"].build(p))
    _assert_matches_two_solve_newton(prob)


def test_solve_sdp_matches_two_solve_newton_random(rng):
    for d_a, d_b in [(2, 2), (3, 2), (3, 3), (2, 4)]:
        prob, _ = reduce_problem(*_random_instance(rng, d_a, d_b))
        _assert_matches_two_solve_newton(prob)
