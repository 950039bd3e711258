import numpy as np
import pytest

from petzlab import optdec
from petzlab.bench import SETTINGS, SweepConfig, run_sweep
from petzlab.decoders import build_petz, build_sw, build_twirled_petz, fe_of_decoder
from petzlab.matcore import dag, herm_part, kron, partial_trace
from petzlab.optdec import (
    SdpProblem,
    _schur_matrix,
    _schur_solve,
    bk_bracket_check,
    build_fidelity_sdp,
    optimal_fidelity,
    reduce_problem,
    solve_sdp,
)
from petzlab.errors import DimensionMismatch, NotTracePreserving, NumericalBreakdown
from petzlab.quantum import (
    KrausChannel,
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
    # G against direct simulation: build_fidelity_sdp checks only its input
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


def test_objective_rejects_channel_that_is_not_trace_preserving(rng):
    rho, ch = _random_instance(rng, 3, 2)
    scaled = KrausChannel(
        kraus_ops=tuple(1.01 * k for k in ch.kraus_ops), dim_in=3, dim_out=2
    )
    with pytest.raises(NotTracePreserving):
        build_fidelity_sdp(rho, scaled)


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


def test_schur_solve_matches_the_real_form(rng):
    # bit-identical on real maps; within roundoff of the real-form solve on
    # complex ones, and still exactly Hermitian
    for d_b, d_a in [(1, 3), (2, 2), (3, 2), (4, 3)]:
        n = d_b * d_a
        for cplx in (False, True):
            w = oracles.random_psd(rng, n) + 0.1 * np.eye(n)
            w = w if cplx else w.real
            lc = _schur_matrix(w[None], (d_b, d_a))
            rhs = np.stack([oracles.random_hermitian(rng, d_b) for _ in range(2)])[None]
            rhs = rhs if cplx else rhs.real
            dy = _schur_solve(lc, rhs)
            ref = oracles.schur_solve_real_form(lc, rhs)
            assert dy.dtype == ref.dtype == (np.complex128 if cplx else np.float64)
            if cplx:
                assert np.linalg.norm(dy - ref) <= 1e-14 * np.linalg.norm(ref)
                assert np.array_equal(dy, dag(dy))
            else:
                assert np.array_equal(dy, ref)


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


# -- the objective from the Kraus-trace identity against the purified einsum ------------

GRID_21 = np.linspace(0.0, 1.0, 21)
OBJECTIVE_PARITY_POINTS = {
    "bitflip3": [*GRID_21, 1e-14, 1e-10, 1 - 1e-10],
    "lncy4": [*GRID_21, 1e-14, 1e-10, 1 - 1e-10],
    "identity": [1e-14, 1e-10, 1 - 1e-10],
    "fivequbit": [0.5],
}


def _assert_objective_matches_purified_oracle(rho, ch):
    g = build_fidelity_sdp(rho, ch).objective
    assert np.max(np.abs(g - oracles.fidelity_objective_purified(rho, ch))) <= 1e-14
    prob, emb = reduce_problem(rho, ch)
    rho_red = density_operator(dag(emb.v_out) @ rho.matrix @ emb.v_out)
    ops = tuple(dag(emb.v_in) @ k @ emb.v_out for k in ch.kraus_ops)
    ch_red = KrausChannel(ops, dim_in=emb.v_out.shape[1], dim_out=emb.v_in.shape[1])
    reference = oracles.fidelity_objective_purified(rho_red, ch_red)
    assert np.max(np.abs(prob.objective - reference)) <= 1e-14


@pytest.mark.parametrize("setting", sorted(OBJECTIVE_PARITY_POINTS))
def test_objective_matches_purified_oracle(setting):
    for p in OBJECTIVE_PARITY_POINTS[setting]:
        _assert_objective_matches_purified_oracle(*SETTINGS[setting].build(float(p)))


def test_objective_matches_purified_oracle_random(rng):
    for d_a, d_b, rank, n_kraus in [(3, 2, 2, 2), (2, 3, 1, 2), (4, 3, 2, 3), (3, 5, 2, 1)]:
        rho = density_operator(oracles.random_state(rng, d_a, rank=rank))
        ch = kraus_channel(oracles.random_kraus(rng, d_a, d_b, n_kraus))
        _assert_objective_matches_purified_oracle(rho, ch)


def test_objective_rejects_mismatched_dimensions():
    with pytest.raises(DimensionMismatch):
        build_fidelity_sdp(make_code_source("bitflip3"), make_channel("bitflip", 0.1))


# -- the certified qubit-permutation sector split -----------------------------------------

SECTOR_PARITY_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": [0.1, 0.5, 0.9],
}


def _split_and_dense(rho, ch, tol=1e-7):
    problems = optdec._sector_problems(rho, ch)
    primal, gap = optdec._solve_sectors(problems, tol)
    dense = solve_sdp(reduce_problem(rho, ch)[0], tol=tol)
    # both values are within their certified gaps of the same optimum
    assert abs(primal - dense.primal) <= abs(dense.gap) + abs(gap)
    # sectors solved at tol/K meet the whole problem's gap rule together
    assert abs(gap) <= tol * (1 + abs(primal))
    return problems, primal, dense


@pytest.mark.parametrize("setting", sorted(SECTOR_PARITY_POINTS))
def test_sector_split_matches_dense_solve(setting):
    for p in SECTOR_PARITY_POINTS[setting]:
        rho, ch = SETTINGS[setting].build(float(p))
        problems, _, _ = _split_and_dense(rho, ch)
        dims = [q.dim_in for q in problems]
        assert sum(dims) == reduce_problem(rho, ch)[1].v_in.shape[1]


def test_sector_split_random_instances_stay_whole(rng):
    instances = [_random_instance(rng, *dims) for dims in [(2, 2), (3, 2), (4, 4), (2, 8)]]
    # a permutation-symmetric source through a channel without that symmetry:
    # sectors are proposed, and the check on G rejects them
    code = make_code_source("bitflip3")
    asymmetric = kraus_channel(oracles.random_kraus(rng, 8, 8, 4))  # full-rank output
    assert len(optdec._sector_bases(code, reduce_problem(code, asymmetric)[1].v_in)) > 1
    instances.append((code, asymmetric))
    for rho, ch in instances:
        problems, primal, dense = _split_and_dense(rho, ch)
        assert len(problems) == 1
        assert primal == dense.primal


@pytest.mark.parametrize(
    "setting, sizes",
    [("bitflip3", [2, 2, 4]), ("lncy4", [1, 3, 3, 3, 6]), ("fivequbit", [6, 6, 6, 6, 8])],
)
def test_sector_sizes(setting, sizes):
    for p in (0.1, 0.5, 0.9):
        problems = optdec._sector_problems(*SETTINGS[setting].build(p))
        assert sorted(q.dim_in for q in problems) == sizes
        assert {q.dim_out for q in problems} == {2}


CUT_POINTS = [*GRID_21, 1e-6, 0.99, 0.999, 1 - 1e-6]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_sector_objectives_are_blocks_of_the_kron_lift(setting):
    """optdec._split cuts the sectors from the rotated objective; each sector
    objective equals, bit for bit, the diagonal block of
    kron(V, 1)^dagger G kron(V, 1) over the concatenated sector bases V."""
    cut = 0
    for p in CUT_POINTS:
        rho, ch = SETTINGS[setting].build(float(p))
        problems = optdec._sector_problems(rho, ch)
        prob, emb = reduce_problem(rho, ch)
        if len(problems) == 1:  # kept whole
            assert np.array_equal(problems[0].objective, prob.objective)
            continue
        bases = optdec._sector_bases(rho, emb.v_in)
        lift = kron(np.concatenate(bases, axis=1), np.eye(prob.dim_out))
        g = dag(lift) @ prob.objective @ lift
        edges = np.cumsum([0] + [v.shape[1] * prob.dim_out for v in bases])
        assert len(problems) == len(bases)
        for q, lo, hi in zip(problems, edges[:-1], edges[1:]):
            assert np.array_equal(q.objective, g[lo:hi, lo:hi])
            cut += 1
    # the identity setting's reduced input (2 wide) is one permutation sector
    assert (cut > 0) == (setting != "identity")


def test_sector_split_falls_back_on_one_perturbed_coupling(monkeypatch):
    rho, ch = SETTINGS["lncy4"].build(0.3)
    prob, emb = reduce_problem(rho, ch)
    bases = optdec._sector_bases(rho, emb.v_in)
    lift = kron(np.concatenate(bases, axis=1), np.eye(prob.dim_out))
    g = dag(lift) @ prob.objective @ lift
    g0 = g.copy()
    # the first and the last row belong to different sectors
    g[0, -1] += 1e-9 * np.linalg.norm(g)
    g[-1, 0] = np.conj(g[0, -1])
    dims = {"dim_in": prob.dim_in, "dim_out": prob.dim_out}
    perturbed = SdpProblem(objective=lift @ g @ dag(lift), **dims)
    monkeypatch.setattr(optdec, "reduce_problem", lambda rho_a, channel: (perturbed, emb))
    assert optdec._sector_problems(rho, ch) == [perturbed]
    assert optimal_fidelity(rho, ch) == solve_sdp(perturbed).primal
    # the unperturbed objective, through the same round trip, is split
    unperturbed = SdpProblem(objective=lift @ g0 @ dag(lift), **dims)
    monkeypatch.setattr(optdec, "reduce_problem", lambda rho_a, channel: (unperturbed, emb))
    assert len(optdec._sector_problems(rho, ch)) == len(bases) > 1


# -- the wider sectors of a grid point padded to one width, in one stacked run -------------


def _shape_stacks(problems):
    stacks = {}
    for prob in problems:
        stacks.setdefault((prob.dim_in, prob.dim_out), []).append(prob)
    return list(stacks.values())


def _assert_stack_matches_unstacked(problems, tol):
    sols = optdec._solve_stack(problems, tol)
    assert len(sols) == len(problems)
    for prob, sol in zip(problems, sols):
        ref = oracles.solve_sdp_unstacked(prob, tol)
        assert sol.iterations == ref.iterations
        assert abs(sol.primal - ref.primal) <= 1e-9
        assert abs(sol.dual - ref.dual) <= 1e-9
    return sols


@pytest.mark.parametrize("setting", sorted(SECTOR_PARITY_POINTS))
def test_stacked_solve_matches_unstacked_on_sector_groups(setting):
    for p in SECTOR_PARITY_POINTS[setting]:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        for stack in _shape_stacks(problems):
            _assert_stack_matches_unstacked(stack, 1e-7 / len(problems))


def test_stacked_solve_matches_unstacked_random_stacks(rng):
    for (d_a, d_b), size in [((2, 2), 2), ((3, 2), 3), ((3, 3), 4), ((2, 4), 3)]:
        problems = [reduce_problem(*_random_instance(rng, d_a, d_b))[0] for _ in range(size)]
        assert len(_shape_stacks(problems)) == 1
        sols = _assert_stack_matches_unstacked(problems, 1e-8)
        # the members leave the stack at different iterations
        assert len({sol.iterations for sol in sols}) > 1


def _record_stacks(monkeypatch):
    """The (problems, tol, solutions) of each optdec._solve_stack call."""
    real = optdec._solve_stack
    runs = []

    def recording(problems, tol):
        sols = real(problems, tol)
        runs.append((problems, tol, sols))
        return sols

    monkeypatch.setattr(optdec, "_solve_stack", recording)
    return runs


# lncy4's 1-wide sector is solved in closed form, not by a stacked run; the
# wider sectors, 2 and 4 (bitflip3), 3 and 6 (lncy4), 6 and 8 (fivequbit)
# wide, are padded to one width and make one run
@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_one_stacked_run_per_grid_point(monkeypatch, setting):
    stacks = _record_stacks(monkeypatch)
    problems = optdec._sector_problems(*SETTINGS[setting].build(0.5))
    optdec._solve_sectors(problems, 1e-7)
    assert len(stacks) == 1
    assert len({q.dim_in for q in problems if q.dim_in > 1}) == 2
    stacked = [q.dim_in for stack, _, _ in stacks for q in stack]
    assert 1 not in stacked
    assert len(stacked) == sum(q.dim_in > 1 for q in problems)


def _padded_runs(monkeypatch, problems, tol):
    """The sectors wider than 1 with the (padded problem, solution) of the
    one stacked run _solve_sectors makes for them."""
    stacks = _record_stacks(monkeypatch)
    optdec._solve_sectors(problems, tol)
    monkeypatch.undo()
    ((padded, run_tol, sols),) = stacks
    assert run_tol == tol / len(problems)
    return [q for q in problems if q.dim_in > 1], padded, sols


def _sector_block(m, d_in, width, d_out):
    """The block of m (on width x d_out) on the first d_in input indices."""
    block = m.reshape(width, d_out, width, d_out)[:d_in, :, :d_in]
    return block.reshape(d_in * d_out, d_in * d_out)


@pytest.mark.parametrize("setting", sorted(SECTOR_PARITY_POINTS))
def test_padded_member_certifies_its_own_sector(monkeypatch, setting):
    tol = 1e-7
    for p in SECTOR_PARITY_POINTS[setting]:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        if len(problems) == 1:  # p = 0 and p = 1 are solved whole
            continue
        wide, padded, sols = _padded_runs(monkeypatch, problems, tol)
        for prob, pad, sol in zip(wide, padded, sols, strict=True):
            d_in, d_out, width = prob.dim_in, prob.dim_out, pad.dim_in
            g = herm_part(prob.objective)
            norm = np.linalg.norm(g)
            x_k = _sector_block(sol.x, d_in, width, d_out)
            y_k = sol.y[:d_in, :d_in]
            # the sector block of X attains the padded primal on G_k ...
            assert abs(np.trace(g @ x_k).real - sol.primal) <= 1e-14 * norm
            # ... and the pad adds exactly 0 to it
            x_off = sol.x.reshape(width, d_out, width, d_out).copy()
            x_off[:d_in, :, :d_in] = 0
            x_off = x_off.reshape(sol.x.shape)
            assert np.einsum("ij,ji->", herm_part(pad.objective), x_off) == 0
            # X_k is feasible for the sector to the run's primal tolerance
            assert np.linalg.norm(np.eye(d_in) - partial_trace(x_k, (d_in, d_out), 0)) <= (
                0.1 * tol / len(problems)
            )
            # Y_k tensor 1 - G_k is the compression of Z + r_d, Z >= 0
            r_d_bound = 0.1 * tol / len(problems) * (1 + norm)
            slack = np.kron(y_k, np.eye(d_out)) - g
            assert np.linalg.eigvalsh(slack)[0] >= -(r_d_bound + 1e-14 * norm * prob.dim)
            # the pad's dual block is nonnegative up to r_d, so the sector's
            # own gap is within the padded run's
            own_gap = np.trace(y_k).real - np.trace(g @ x_k).real
            assert own_gap <= abs(sol.gap) + width * r_d_bound


def test_wider_sectors_keep_their_stacked_runs():
    # the padded run against one stacked run per sector shape: both sums are
    # within their certified gaps of the same optimum
    tol = 1e-7
    for setting, points in SECTOR_PARITY_POINTS.items():
        for p in points:
            problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
            primal, gap = optdec._solve_sectors(problems, tol)
            old_primal, old_gap = oracles.solve_sectors_per_shape(problems, tol)
            assert abs(primal - old_primal) <= abs(old_gap) + abs(gap)
            assert abs(gap) <= tol * (1 + abs(primal))


def _hand_built(rng, widths, d_out, complex_index):
    """Reduced problems of the given input widths and one output width,
    real but for the one at complex_index."""
    problems = []
    for k, d_in in enumerate(widths):
        prob, _ = reduce_problem(*_random_instance(rng, d_out, d_in))
        assert (prob.dim_in, prob.dim_out) == (d_in, d_out)
        if k != complex_index:
            real = prob.objective.real.astype(complex)
            prob = SdpProblem(objective=real, dim_in=d_in, dim_out=d_out)
        problems.append(prob)
    return problems


def _one_sum_within_gaps(monkeypatch, problems, tol):
    """The stacked runs of _solve_sectors on ``problems`` and the dtypes of
    their Cholesky factorizations; the sum is checked against a solve_sdp of
    each problem."""
    refs = [solve_sdp(q, tol=tol / len(problems)) for q in problems]
    stacks = _record_stacks(monkeypatch)
    dtypes = _cholesky_dtypes(monkeypatch)
    primal, gap = optdec._solve_sectors(problems, tol)
    monkeypatch.undo()
    assert abs(primal - sum(r.primal for r in refs)) <= abs(gap) + sum(abs(r.gap) for r in refs)
    assert abs(gap) <= tol * (1 + abs(primal))
    return stacks, dtypes


def test_mixed_widths_make_one_run_per_output_width(monkeypatch, rng):
    tol = 1e-7
    problems = _hand_built(rng, [2, 3, 4], 2, complex_index=1)
    assert problems[1].objective.imag.any()
    stacks, dtypes = _one_sum_within_gaps(monkeypatch, problems, tol)
    assert len(stacks) == 1 and [q.dim_in for q in stacks[0][0]] == [4, 4, 4]
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}

    mixed = problems + _hand_built(rng, [2, 3], 3, complex_index=None)
    stacks, _ = _one_sum_within_gaps(monkeypatch, mixed, tol)
    shapes = sorted(tuple({(q.dim_in, q.dim_out) for q in stack}) for stack, _, _ in stacks)
    assert shapes == [((3, 3),), ((4, 2),)]

    for index in range(len(problems)):
        with pytest.raises(NumericalBreakdown):
            optdec._solve_sectors(_with_nan_objective(problems, index), tol)


# -- sectors with a one-dimensional input in closed form -----------------------------------


def _assert_one_wide_certified(prob, ip_tol):
    """The closed form of a dim_in = 1 problem against the interior point at
    ip_tol, and its primal and dual certificates; returns how far the closed
    form lies above the interior point's primal."""
    value, bound = optdec._solve_one_wide(prob)
    ip = solve_sdp(prob, tol=ip_tol)
    # at or above the interior point's feasible primal, within its gap
    assert 0 <= value - ip.primal <= abs(ip.gap) + 1e-12
    g = herm_part(prob.objective)
    norm = np.linalg.norm(g)
    assert 0 < bound <= 1e-13 * norm
    # X = v v^dagger for a top eigenvector: tr_out X = tr X = 1, X >= 0
    v = np.linalg.eigh(g)[1][:, -1]
    x = np.outer(v, v.conj())
    assert abs(np.trace(x) - 1) <= 1e-14
    assert np.trace(g @ x).real == pytest.approx(value, abs=1e-14 * norm)
    # y = value is dual feasible up to the stated roundoff bound
    assert np.linalg.eigvalsh(value * np.eye(prob.dim_out) - g)[0] >= -bound
    return value - ip.primal


def test_one_wide_closed_form_matches_interior_point_on_lncy4_sectors():
    moved = []
    for p in GRID_21:
        problems = optdec._sector_problems(*SETTINGS["lncy4"].build(float(p)))
        for prob in problems:
            if prob.dim_in == 1:
                moved.append(_assert_one_wide_certified(prob, 1e-7 / len(problems)))
    # one 1-wide sector at each interior point, and at p = 1 the reduced
    # problem is 1 wide itself; p = 0 is solved whole
    assert len(moved) == len(GRID_21) - 1
    assert max(moved) <= 3e-9


@pytest.mark.parametrize("dim_out", [2, 3, 4])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_one_wide_closed_form_matches_interior_point_random(rng, dim_out, real):
    for _ in range(4):
        g = oracles.random_psd(rng, dim_out) - 0.3 * oracles.random_hermitian(rng, dim_out)
        if real:
            g = g.real.astype(complex)  # real entries in a complex array
        _assert_one_wide_certified(SdpProblem(objective=g, dim_in=1, dim_out=dim_out), 1e-9)


def _with_nan_objective(problems, index):
    bad = problems[index]
    nan = np.full_like(bad.objective, np.nan)
    poisoned = SdpProblem(objective=nan, dim_in=bad.dim_in, dim_out=bad.dim_out)
    return problems[:index] + [poisoned] + problems[index + 1 :]


def test_non_finite_member_fails_its_stack():
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))
    index = next(k for k, q in enumerate(problems) if q.dim_in == 3)  # a stack of three
    with pytest.raises(NumericalBreakdown):
        optdec._solve_sectors(_with_nan_objective(problems, index), 1e-7)


def test_non_finite_one_wide_sector_fails_the_sum():
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))
    assert problems[-1].dim_in == 1
    with pytest.raises(NumericalBreakdown):
        optdec._solve_sectors(_with_nan_objective(problems, -1), 1e-7)


def _assert_nan_sector_fails_only_the_optimal_row(monkeypatch, tmp_path, index):
    real = optdec._sector_problems
    monkeypatch.setattr(
        optdec, "_sector_problems", lambda rho, ch: _with_nan_objective(real(rho, ch), index)
    )
    cfg = SweepConfig(
        setting="lncy4", p_start=0.5, p_stop=0.5, p_count=1, out=str(tmp_path / "x.csv")
    )
    flags = {c.series: c.flags for c in run_sweep(cfg)}
    assert flags.pop("optimal") == "error:NumericalBreakdown"
    assert set(flags.values()) == {"ok"}


def test_non_finite_member_fails_only_the_optimal_row(monkeypatch, tmp_path):
    _assert_nan_sector_fails_only_the_optimal_row(monkeypatch, tmp_path, 1)


def test_non_finite_one_wide_sector_fails_only_the_optimal_row(monkeypatch, tmp_path):
    # problems[-1] is lncy4's 1-wide sector, solved in closed form
    _assert_nan_sector_fails_only_the_optimal_row(monkeypatch, tmp_path, -1)


# -- sectors refined into the pieces of their objective's block algebra ------------------

REFINE_EXTREME_P = [1e-14, 1e-6, 1 - 1e-6, 1 - 1e-14]


def _sector_pieces(problems, pieces):
    """The pieces of each sector, in order: [sector] for a sector kept whole."""
    out, pos = [], 0
    for prob in problems:
        if pieces[pos] is prob:
            out.append([prob])
            pos += 1
            continue
        own = []
        while sum(q.dim_in for q in own) < prob.dim_in:
            own.append(pieces[pos])
            pos += 1
        assert sum(q.dim_in for q in own) == prob.dim_in
        out.append(own)
    assert pos == len(pieces)
    return out


def _assert_pieces_certified(problems, pieces):
    """Every split sector's own proposal leaves a coupling of at most
    SECTOR_TOL * ||G_k|| between pieces of the sizes it was split into, and
    the pieces' spectra together are G_k's within that coupling (Weyl)."""
    for prob, own in zip(problems, _sector_pieces(problems, pieces), strict=True):
        if own == [prob]:
            continue
        d_b, d_a = prob.dim_in, prob.dim_out
        g = herm_part(prob.objective)
        norm = np.linalg.norm(g)
        v, labels = optdec._propose_pieces(g.reshape(d_b, d_a, d_b, d_a), norm)
        assert sorted(np.bincount(labels)) == sorted(q.dim_in for q in own)
        lift = kron(v, np.eye(d_a))
        rot = (dag(lift) @ g @ lift).reshape(d_b, d_a, d_b, d_a)
        cut = labels[:, None] != labels[None, :]
        assert np.linalg.norm(rot.transpose(0, 2, 1, 3)[cut]) <= optdec.SECTOR_TOL * norm
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(herm_part(q.objective)) for q in own]))
        assert np.abs(spectrum - np.linalg.eigvalsh(g)).max() <= (optdec.SECTOR_TOL + 1e-14) * norm


@pytest.mark.parametrize("setting", ["bitflip3", "lncy4", "fivequbit"])
def test_refined_pieces_match_unrefined_sectors(setting):
    tol = 1e-7
    for p in list(GRID_21) + REFINE_EXTREME_P:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        pieces = optdec._refine_sectors(problems)
        primal, gap = optdec._solve_sectors(pieces, tol)
        old_primal, old_gap = optdec._solve_sectors(problems, tol)
        # both sums are within their certified gaps of the same optimum
        assert abs(primal - old_primal) <= abs(gap) + abs(old_gap)
        assert abs(gap) <= tol * (1 + abs(primal))
        _assert_pieces_certified(problems, pieces)


# lncy4's 6-wide sector splits 3 + 2 + 1 and each 3-wide one 2 + 1, bitflip3's
# 4-wide one 2 + 2; fivequbit's sectors are irreducible and kept whole
@pytest.mark.parametrize(
    "setting, points, sizes",
    [
        ("bitflip3", (0.1, 0.9), [2, 2, 2, 2]),
        ("lncy4", (0.1, 0.5, 0.9), [1, 1, 1, 1, 1, 2, 2, 2, 2, 3]),
        ("fivequbit", (0.1, 0.5, 0.9), [6, 6, 6, 6, 8]),
    ],
)
def test_piece_sizes(setting, points, sizes):
    for p in points:
        problems = optdec._sector_problems(*SETTINGS[setting].build(p))
        pieces = optdec._refine_sectors(problems)
        assert sorted(q.dim_in for q in pieces) == sizes
        assert {q.dim_out for q in pieces} == {2}
        if setting == "fivequbit":
            assert all(a is b for a, b in zip(pieces, problems, strict=True))


@pytest.mark.parametrize("setting", ["lncy4", "fivequbit"])
def test_copied_sectors_reuse_their_representatives_proposal(monkeypatch, setting):
    # one proposal per distinct sector wider than 1: lncy4's 6-wide sector and
    # two of its three 3-wide ones, fivequbit's 8-wide and two of its four
    # 6-wide ones; a copy's pieces stay copies in the padded run, where
    # copies up to a product unitary leave one member per width
    problems = optdec._sector_problems(*SETTINGS[setting].build(0.5))
    real = optdec._propose_pieces
    proposed = []
    monkeypatch.setattr(
        optdec, "_propose_pieces", lambda g4, norm: proposed.append(len(g4)) or real(g4, norm)
    )
    pieces = optdec._refine_sectors(problems)
    monkeypatch.undo()
    assert len(proposed) == _distinct_objectives([q for q in problems if q.dim_in > 1]) == 3
    wide = [q for q in pieces if q.dim_in > 1]
    stacks = [(stack, 1e-7 / len(pieces)) for stack in _shape_stacks(wide)]
    assert _first_iteration_members(monkeypatch, stacks) == 2


def test_bitflip3_half_refines_to_one_wide_pieces(monkeypatch):
    problems = optdec._sector_problems(*SETTINGS["bitflip3"].build(0.5))
    pieces = optdec._refine_sectors(problems)
    assert [q.dim_in for q in pieces] == [1] * 8
    stacks = _record_stacks(monkeypatch)
    primal, gap = optdec._solve_sectors(pieces, 1e-7)
    assert stacks == []
    assert abs(primal - 0.5) <= 1e-14
    assert 0 < gap <= 1e-14


def test_piece_split_falls_back_on_one_perturbed_coupling(monkeypatch):
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.3))
    k = next(i for i, q in enumerate(problems) if q.dim_in == 6)
    d_b, d_a = problems[k].dim_in, problems[k].dim_out
    g = herm_part(problems[k].objective)
    v, labels = optdec._propose_pieces(g.reshape(d_b, d_a, d_b, d_a), np.linalg.norm(g))
    assert sorted(np.bincount(labels)) == [1, 2, 3]
    lift = kron(v, np.eye(d_a))
    rot = dag(lift) @ g @ lift
    rot0 = rot.copy()
    # couple the first vectors of two pieces, far below the sector's norm
    i, j = (np.flatnonzero(labels == label)[0] * d_a for label in (0, 1))
    rot[i, j] += 1e-9 * np.linalg.norm(g)
    rot[j, i] = np.conj(rot[i, j])
    real = optdec._propose_pieces
    monkeypatch.setattr(
        optdec, "_propose_pieces", lambda g4, norm: (v, labels) if len(g4) == d_b else real(g4, norm)
    )

    def refined(objective):
        sector = SdpProblem(objective=lift @ objective @ dag(lift), dim_in=d_b, dim_out=d_a)
        return sector, optdec._refine_sectors(problems[:k] + [sector] + problems[k + 1 :])

    # the same proposal splits the unperturbed sector and is refused on the
    # perturbed one, which is kept whole
    sector, pieces = refined(rot)
    assert any(q is sector for q in pieces)
    assert sorted(q.dim_in for q in pieces if q.dim_out == d_a) == [1, 1, 1, 1, 2, 2, 2, 6]
    sector, pieces = refined(rot0)
    assert not any(q is sector for q in pieces)
    assert len(pieces) == 10


def test_failed_proposal_keeps_every_sector_whole(monkeypatch):
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("eigh failed")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    pieces = optdec._refine_sectors(problems)
    assert all(a is b for a, b in zip(pieces, problems, strict=True))


def _hidden_blocks(rng, widths, d_out):
    """A complex problem on the direct sum of reduced random problems of the
    given input widths, in a random basis of that sum, and its blocks."""
    blocks = [reduce_problem(*_random_instance(rng, d_out, w))[0] for w in widths]
    d_b = sum(widths)
    g = np.zeros((d_b, d_out, d_b, d_out), dtype=complex)
    for lo, block in zip(np.cumsum([0] + widths), blocks):
        w = block.dim_in
        g[lo : lo + w, :, lo : lo + w] = block.objective.reshape(w, d_out, w, d_out)
    u = np.linalg.qr(rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b)))[0]
    lift = kron(u, np.eye(d_out))
    n = d_b * d_out
    return SdpProblem(objective=lift @ g.reshape(n, n) @ dag(lift), dim_in=d_b, dim_out=d_out), blocks


def test_refined_random_complex_instances_agree_within_gaps(monkeypatch, rng):
    tol = 1e-7
    for widths, d_out in [([[2, 1], [2, 2]], 2), ([[1, 1], [3, 2]], 2), ([[2, 1], [2]], 3)]:
        hidden = [_hidden_blocks(rng, w, d_out) for w in widths]
        problems = [prob for prob, _ in hidden]
        blocks = [block for _, own in hidden for block in own]
        pieces = optdec._refine_sectors(problems)
        assert sorted(q.dim_in for q in pieces) == sorted(b.dim_in for b in blocks)
        assert all(q.objective.imag.any() for q in pieces if q.dim_in > 1)
        _assert_pieces_certified(problems, pieces)
        dtypes = _cholesky_dtypes(monkeypatch)
        primal, gap = optdec._solve_sectors(pieces, tol)
        monkeypatch.undo()
        assert dtypes and set(dtypes) == {np.dtype(np.complex128)}
        old_primal, old_gap = optdec._solve_sectors(problems, tol)
        assert abs(primal - old_primal) <= abs(gap) + abs(old_gap)
        refs = [solve_sdp(b, tol=tol / len(blocks)) for b in blocks]
        assert abs(primal - sum(r.primal for r in refs)) <= abs(gap) + sum(abs(r.gap) for r in refs)


def test_one_wide_pieces_share_one_eigvalsh(monkeypatch):
    for setting, p in [("bitflip3", 0.5), ("lncy4", 0.3)]:
        pieces = optdec._refine_sectors(optdec._sector_problems(*SETTINGS[setting].build(p)))
        ones = [q for q in pieces if q.dim_in == 1]
        assert len(ones) == {"bitflip3": 8, "lncy4": 5}[setting]
        # each optimum bit for bit as from an eigvalsh of its own objective
        for (value, bound), q in zip(optdec._solve_one_wide_stack(ones), ones, strict=True):
            g = herm_part(q.objective).real
            assert value == np.linalg.eigvalsh(g)[-1]
            own = 4 * q.dim_out**2 * np.finfo(float).eps * np.linalg.norm(g)
            assert bound == pytest.approx(own, rel=1e-14)
    # bitflip3 at p = 0.5 is all 1-wide pieces: one eigvalsh for the point
    pieces = optdec._refine_sectors(optdec._sector_problems(*SETTINGS["bitflip3"].build(0.5)))
    real = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    optdec._solve_sectors(pieces, 1e-7)
    assert calls == [(8, 2, 2)]


# -- one Cholesky factorization and one SVD per interior-point iteration -----------------


def _count_in_solve_stack(monkeypatch, fail_at=None):
    """Count the calls of np.linalg.cholesky, np.linalg.svd, np.linalg.eigh
    and optdec.herm_eig made inside optdec._solve_stack. With
    ``fail_at=(name, k)`` the k-th call of np.linalg.<name> there raises
    LinAlgError; calls outside a stacked solve pass through uncounted."""
    counts = {"cholesky": 0, "svd": 0, "eigh": 0, "herm_eig": 0}
    inside = []

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if inside:
                counts[key] += 1
                if fail_at == (key, counts[key]):
                    raise np.linalg.LinAlgError(f"{key} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("cholesky", "svd", "eigh"):
        counting(np.linalg, name, name)
    counting(optdec, "herm_eig", "herm_eig")
    real_stack = optdec._solve_stack

    def stack(problems, tol):
        inside.append(True)
        try:
            return real_stack(problems, tol)
        finally:
            inside.pop()

    monkeypatch.setattr(optdec, "_solve_stack", stack)
    return counts


def test_one_cholesky_and_one_svd_per_stepping_iteration(monkeypatch):
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))
    stack = [q for q in problems if q.dim_in == 3]
    assert len(stack) == 3
    counts = _count_in_solve_stack(monkeypatch)
    sols = optdec._solve_stack(stack, 1e-7 / len(problems))
    # the last iteration only records the members that have converged
    steps = max(sol.iterations for sol in sols) - 1
    assert counts == {"cholesky": steps, "svd": steps, "eigh": 0, "herm_eig": 0}


@pytest.mark.parametrize("name", ["cholesky", "svd"])
def test_failed_factorization_is_a_numerical_breakdown(monkeypatch, name):
    problems = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))
    _count_in_solve_stack(monkeypatch, fail_at=(name, 3))
    with pytest.raises(NumericalBreakdown):
        optdec._solve_sectors(problems, 1e-7)


@pytest.mark.parametrize("name", ["cholesky", "svd"])
def test_failed_factorization_fails_only_the_optimal_row(monkeypatch, tmp_path, name):
    _count_in_solve_stack(monkeypatch, fail_at=(name, 3))
    cfg = SweepConfig(
        setting="lncy4", p_start=0.5, p_stop=0.5, p_count=1, out=str(tmp_path / "x.csv")
    )
    flags = {c.series: c.flags for c in run_sweep(cfg)}
    assert flags.pop("optimal") == "error:NumericalBreakdown"
    assert set(flags.values()) == {"ok"}


# -- one interior-point run per class of group-related sectors ----------------------------

# distinct sector objectives at interior points: the other sectors carry the
# same irrep of the permutation group as an earlier one of their width
DISTINCT_SECTORS = {"bitflip3": (2, 3), "lncy4": (4, 5), "fivequbit": (3, 5)}
# sectors factored by _solve_stack at p = 0.5: copies up to a product unitary
# V tensor W merge fivequbit's two classes of 6-wide sectors (lncy4's 3-wide
# ones have a Pauli Gram block with a double eigenvalue, which the search
# does not take)
FACTORED_SECTORS = {"bitflip3": (2, 3), "lncy4": (4, 5), "fivequbit": (2, 5)}


def _distinct_objectives(problems):
    distinct = []
    for prob in problems:
        g = prob.objective
        if not any(
            q.objective.shape == g.shape
            and np.linalg.norm(g - q.objective) <= optdec.SECTOR_TOL * np.linalg.norm(q.objective)
            for q in distinct
        ):
            distinct.append(prob)
    return len(distinct)


@pytest.mark.parametrize("setting", sorted(SECTOR_PARITY_POINTS))
def test_group_related_sectors_have_equal_objectives(setting):
    for p in SECTOR_PARITY_POINTS[setting]:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        if len(problems) > 1:  # p = 0 and p = 1 are solved whole
            assert (_distinct_objectives(problems), len(problems)) == DISTINCT_SECTORS[setting]


def _count_factored_members(monkeypatch):
    """Members of each stacked Cholesky factorization, which factors [X; Z]."""
    real = np.linalg.cholesky
    members = []

    def counting(a):
        members.append(len(a) // 2)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return members


def _first_iteration_members(monkeypatch, stacks):
    members = _count_factored_members(monkeypatch)
    factored = 0
    for stack, tol in stacks:
        members.clear()
        optdec._solve_stack(stack, tol)
        factored += members[0]
    return factored


@pytest.mark.parametrize("setting", sorted(FACTORED_SECTORS))
def test_only_distinct_sector_members_are_factored(monkeypatch, setting):
    problems = optdec._sector_problems(*SETTINGS[setting].build(0.5))
    stacks = [(stack, 1e-7 / len(problems)) for stack in _shape_stacks(problems)]
    factored = _first_iteration_members(monkeypatch, stacks)
    assert (factored, len(problems)) == FACTORED_SECTORS[setting]


def test_repeated_problem_solved_once(monkeypatch):
    prob = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))[-1]
    ref = solve_sdp(prob, tol=1e-8)
    members = _count_factored_members(monkeypatch)
    sols = optdec._solve_stack([prob, prob, prob], 1e-8)
    assert len(sols) == 3
    assert set(members) == {1} and len(members) == ref.iterations - 1
    for sol in sols:
        assert (sol.primal, sol.dual, sol.gap, sol.iterations) == (
            ref.primal,
            ref.dual,
            ref.gap,
            ref.iterations,
        )
        assert np.array_equal(sol.x, ref.x) and np.array_equal(sol.y, ref.y)


def _perturbed(prob, size, rng):
    h = oracles.random_hermitian(rng, prob.dim)
    h *= size * np.linalg.norm(prob.objective) / np.linalg.norm(h)
    return SdpProblem(objective=prob.objective + h, dim_in=prob.dim_in, dim_out=prob.dim_out)


def test_copy_perturbed_beyond_sector_tol_is_solved_on_its_own(monkeypatch, rng):
    prob = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))[-1]
    other = _perturbed(prob, 1e-9, rng)
    members = _count_factored_members(monkeypatch)
    sols = optdec._solve_stack([prob, other], 1e-8)
    assert members[0] == 2
    for q, sol in zip([prob, other], sols):
        ref = oracles.solve_sdp_unstacked(q, 1e-8)
        assert sol.iterations == ref.iterations
        assert abs(sol.primal - ref.primal) <= 1e-9


def test_copy_within_sector_tol_widens_its_gap(rng):
    prob = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))[-1]
    copy = _perturbed(prob, 0.5 * optdec.SECTOR_TOL, rng)
    rep, sol = optdec._solve_stack([prob, copy], 1e-8)
    shift = prob.dim_in * np.linalg.norm(herm_part(copy.objective) - herm_part(prob.objective))
    assert sol.primal == rep.primal and sol.iterations == rep.iterations
    assert sol.gap == pytest.approx(rep.gap + shift, rel=1e-12)
    assert sol.dual == pytest.approx(rep.dual + shift, rel=1e-12)
    # the copy's dual iterate matches its dual and is feasible for its own G
    assert np.trace(sol.y).real == pytest.approx(sol.dual, rel=1e-12)
    g = herm_part(copy.objective)
    slack = np.kron(sol.y, np.eye(copy.dim_out)) - g
    assert np.linalg.eigvalsh(slack).min() >= -1e-9 * (1 + np.linalg.norm(g))
    # the widened gap still covers the copy's own optimum
    own = solve_sdp(copy, tol=1e-10)
    assert abs(own.primal - sol.primal) <= abs(sol.gap) + abs(own.gap)


def _cyclic_average(m, n):
    shifts = [tuple((np.arange(n) + s) % n) for s in range(n)]
    return sum(oracles.permute_rows(oracles.permute_rows(m, p).T, p).T for p in shifts) / n


def test_stabilizer_prefilter_keeps_every_symmetry(rng):
    # the probe prefilter of _stabilizers is implied by the Frobenius test,
    # so it keeps every permutation that the test one permutation at a time
    # accepts, and _stabilizers accepts no other
    n = 7  # 5040 permutations
    w_state = np.zeros(2**n)
    w_state[2 ** np.arange(n)] = 1 / np.sqrt(n)
    cases = [
        (0.5 * np.outer(w_state, w_state) + 0.5 * np.eye(2**n) / 2**n, n),
        (_cyclic_average(oracles.random_state(rng, 2**n), n), n),
        (oracles.random_state(rng, 2**n), n),
    ]
    settings = [("bitflip3", 3), ("lncy4", 4), ("fivequbit", 5)]
    cases += [(SETTINGS[s].build(0.3)[0].matrix, k) for s, k in settings]
    for s, k in settings:
        v_in = reduce_problem(*SETTINGS[s].build(0.3))[1].v_in
        cases.append((v_in @ dag(v_in), k))  # the support projector pi_B
    for m, k in cases:
        stabilizers = optdec._stabilizers(m, m, k)
        accepted = oracles.stabilizers_by_reshape(m, m, k)
        assert [j for j, _ in stabilizers] == [j for j, _ in accepted]
        rows = np.arange(2**k)[:, None]
        for (_, idx), (_, perm) in zip(stabilizers, accepted):
            assert np.array_equal(idx, oracles.permute_rows(rows, perm)[:, 0])
    assert len(optdec._stabilizers(cases[0][0], cases[0][0], n)) == 5039
    assert len(optdec._stabilizers(cases[1][0], cases[1][0], n)) >= 6


SECTOR_BASIS_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": [*GRID_21, 0.99, 0.999],
    "identity": GRID_21,
}


@pytest.mark.parametrize("setting", sorted(SECTOR_BASIS_POINTS))
def test_sector_bases_match_the_reshaping_oracle(setting):
    # the index table gathers the same entries as permuting by reshaping,
    # so every basis is bit-identical
    for p in SECTOR_BASIS_POINTS[setting]:
        rho, ch = SETTINGS[setting].build(float(p))
        v_in = reduce_problem(rho, ch)[1].v_in
        bases = optdec._sector_bases(rho, v_in)
        ref = oracles.sector_bases_by_reshape(rho, v_in)
        assert len(bases) == len(ref)
        assert all(np.array_equal(b, r) for b, r in zip(bases, ref))


# -- real objectives are solved in real arithmetic -----------------------------------------

REAL_PARITY_POINTS = {
    "bitflip3": GRID_21,
    "lncy4": GRID_21,
    "fivequbit": [0.1, 0.5, 0.9],
}


@pytest.mark.parametrize("setting", sorted(REAL_PARITY_POINTS))
def test_real_and_complex_interior_points_agree(setting):
    # at the sweep tolerance tol/K; at tol 1e-10 the two roundoffs can part
    # by an iteration (fivequbit p = 0.7, 6-wide sector: 21 real, 22 complex)
    for p in REAL_PARITY_POINTS[setting]:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        tol = 1e-7 / len(problems)
        for stack in _shape_stacks(problems):
            g = herm_part(np.stack([q.objective for q in stack]))
            assert not g.imag.any()
            dims = (stack[0].dim_in, stack[0].dim_out)
            real = optdec._interior_point(g.real, dims, tol)
            cplx = optdec._interior_point(g.real.astype(np.complex128), dims, tol)
            for r, c in zip(real, cplx):
                assert r.x.dtype == np.float64 and c.x.dtype == np.complex128
                assert r.iterations == c.iterations
                assert abs(r.primal - c.primal) <= 1e-10
                assert abs(r.dual - c.dual) <= 1e-10


def _cholesky_dtypes(monkeypatch):
    real = np.linalg.cholesky
    dtypes = []

    def recording(a):
        dtypes.append(a.dtype)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return dtypes


def test_solver_arithmetic_follows_the_objective(monkeypatch, rng):
    dtypes = _cholesky_dtypes(monkeypatch)
    for setting in ("bitflip3", "lncy4", "fivequbit"):
        problems = optdec._sector_problems(*SETTINGS[setting].build(0.5))
        assert len(problems) > 1
        optdec._solve_sectors(problems, 1e-7)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    # complex Kraus operators give a complex objective
    dtypes.clear()
    prob, _ = reduce_problem(*_random_instance(rng, 3, 2))
    assert solve_sdp(prob).x.dtype == np.complex128
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}

    # only an exactly zero imaginary part is dropped
    dtypes.clear()
    sector = optdec._sector_problems(*SETTINGS["lncy4"].build(0.5))[-1]
    g = sector.objective.real.astype(np.complex128)
    g[0, 1] += 1e-30j
    g[1, 0] -= 1e-30j
    tiny = SdpProblem(objective=g, dim_in=sector.dim_in, dim_out=sector.dim_out)
    assert solve_sdp(tiny).x.dtype == np.complex128
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}


# -- the trimmed interior-point loop against the untrimmed one ---------------------------


def _solver_stack(problems):
    """The objectives as _solve_stack hands them to _interior_point."""
    g = herm_part(np.stack([q.objective for q in problems]))
    return g if g.imag.any() else g.real


def _assert_loop_matches_untrimmed(g, dims, tol):
    sols = optdec._interior_point(g, dims, tol)
    refs = oracles.interior_point_untrimmed(g, dims, tol)
    for sol, ref in zip(sols, refs, strict=True):
        assert sol.iterations == ref.iterations
        assert abs(sol.primal - ref.primal) <= 1e-12
        assert abs(sol.dual - ref.dual) <= 1e-12
    return sols


@pytest.mark.parametrize("setting", sorted(SECTOR_PARITY_POINTS))
def test_interior_point_matches_untrimmed_loop_on_sector_stacks(setting):
    for p in SECTOR_PARITY_POINTS[setting]:
        problems = optdec._sector_problems(*SETTINGS[setting].build(float(p)))
        for stack in _shape_stacks(problems):
            dims = (stack[0].dim_in, stack[0].dim_out)
            _assert_loop_matches_untrimmed(_solver_stack(stack), dims, 1e-7 / len(problems))


def test_interior_point_matches_untrimmed_loop_on_random_complex_stacks(rng):
    for (d_a, d_b), size in [((2, 2), 2), ((3, 2), 3), ((3, 3), 4), ((2, 4), 3)]:
        problems = [reduce_problem(*_random_instance(rng, d_a, d_b))[0] for _ in range(size)]
        assert len(_shape_stacks(problems)) == 1
        g = _solver_stack(problems)
        assert g.dtype == np.complex128
        dims = (problems[0].dim_in, problems[0].dim_out)
        for tol in (1e-7, 1e-9):
            _assert_loop_matches_untrimmed(g, dims, tol)


@pytest.mark.xfail(
    strict=True,
    raises=NumericalBreakdown,
    reason="the gap falls to 1.1e-11 at iteration 23, but from there the primal residual "
    "stays at 4.6e-11 to 3.9e-10, above feas_tol 1e-11; the dual residual and the gap "
    "then grow until the Cholesky of [X; Z] fails at iteration 57, gap 5.5e-8",
)
def test_solve_sdp_reaches_tol_1e_10_on_fivequbit_8_wide_sector():
    problems = optdec._sector_problems(*SETTINGS["fivequbit"].build(0.5))
    (sector,) = [q for q in problems if q.dim_in == 8]
    sol = solve_sdp(sector, tol=1e-10)
    assert abs(sol.gap) <= 1e-10 * (1 + abs(sol.primal))


# -- copies up to a product unitary V tensor W ------------------------------------


def _random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _padded_run(setting, p):
    """The pieces of a point, and the wider ones padded as _solve_sectors
    stacks them."""
    pieces = optdec._refine_sectors(optdec._sector_problems(*SETTINGS[setting].build(float(p))))
    wide = [q for q in pieces if q.dim_in > 1]
    width = max((q.dim_in for q in wide), default=0)
    return pieces, wide, [optdec._pad_input(q, width) for q in wide]


@pytest.mark.parametrize("setting", ["lncy4", "fivequbit"])
def test_every_product_copy_certifies_its_own_piece(setting):
    # the sweep's tolerance; each padded member is solved at tol/K
    tol = 1e-7
    for p in GRID_21[1:-1]:
        pieces, wide, padded = _padded_run(setting, p)
        width, d_out = padded[0].dim_in, padded[0].dim_out
        copies = optdec._copies(optdec._objectives(padded), (width, d_out))
        sols = optdec._solve_stack(padded, tol / len(pieces))
        # one class per width: fivequbit's 8- and 6-wide pieces, lncy4's 3-
        # and 2-wide ones
        assert sum(r == i for i, (r, _, _) in enumerate(copies)) == 2
        for prob, (r, vw, _), sol in zip(wide, copies, sols, strict=True):
            if vw is None:
                continue
            v, w = vw
            for u in (v, w):
                assert np.linalg.norm(dag(u) @ u - np.eye(len(u))) <= 1e-14
            d_in = prob.dim_in
            g = herm_part(prob.objective)
            norm = np.linalg.norm(g)
            x_k = _sector_block(sol.x, d_in, width, d_out)
            y_k = sol.y[:d_in, :d_in]
            assert np.linalg.eigvalsh(sol.x)[0] >= -1e-14
            assert np.linalg.norm(np.eye(d_in) - partial_trace(x_k, (d_in, d_out), 0)) <= (
                0.1 * tol / len(pieces)
            )
            r_d_bound = 0.1 * tol / len(pieces) * (1 + norm)
            slack = np.kron(y_k, np.eye(d_out)) - g
            assert np.linalg.eigvalsh(slack)[0] >= -(r_d_bound + 1e-14 * norm * prob.dim)
            # tol 1e-9: at 1e-10 the solver breaks down on some fivequbit pieces
            # (as on the 8-wide sector of the strict xfail below)
            own = solve_sdp(prob, tol=1e-9)
            assert abs(sol.primal - own.primal) <= abs(sol.gap) + abs(own.gap)


def test_no_product_copy_on_bitflip3():
    # its 2-wide pieces of one spectrum have Pauli Gram blocks with a double
    # eigenvalue and are no phase copies: 3 of 4 stay distinct
    for p in GRID_21[1:-1]:
        _, _, padded = _padded_run("bitflip3", p)
        if not padded:  # p = 0.5 has only 1-wide pieces
            continue
        copies = optdec._copies(optdec._objectives(padded), (2, 2))
        assert [vw for _, vw, _ in copies] == [None] * 4
        assert sum(r == i for i, (r, _, _) in enumerate(copies)) == 3


def test_phase_conjugate_is_a_copy_for_any_output(rng):
    # V diagonal and W = 1 are found from the phase gauge, also where the
    # output is not a qubit and no product search runs
    prob = reduce_problem(*_random_instance(rng, 3, 3))[0]
    d_in, d_out = prob.dim_in, prob.dim_out
    assert d_out != 2
    g = herm_part(prob.objective)
    m = np.kron(np.diag(np.exp(2j * np.pi * rng.uniform(size=d_in))), np.eye(d_out))
    (_, copy, _), (r, (v, w), e) = optdec._copies(np.stack([g, dag(m) @ g @ m]), (d_in, d_out))
    assert copy is None and r == 0
    assert (w == np.eye(d_out)).all() and (v == np.diag(np.diag(v))).all()
    assert np.abs(np.abs(np.diag(v)) - 1).max() <= 1e-15
    assert e <= optdec.SECTOR_TOL * np.linalg.norm(g)


def test_random_product_conjugate_is_a_copy_and_a_perturbed_one_is_not(rng):
    pieces = optdec._refine_sectors(optdec._sector_problems(*SETTINGS["fivequbit"].build(0.5)))
    for prob in [pieces[1], reduce_problem(*_random_instance(rng, 2, 3))[0]]:
        d_in, d_out = prob.dim_in, prob.dim_out
        m = np.kron(_random_unitary(rng, d_in), _random_unitary(rng, d_out))
        g = herm_part(prob.objective)
        conjugate = herm_part(dag(m) @ g @ m)
        h = oracles.random_hermitian(rng, prob.dim)
        perturbed = conjugate + 1e-9 * np.linalg.norm(g) / np.linalg.norm(h) * h
        (_, copy, _), (r, vw, e) = optdec._copies(np.stack([g, conjugate]), (d_in, d_out))
        assert copy is None and r == 0 and vw is not None
        assert e <= optdec.SECTOR_TOL * np.linalg.norm(g)
        copies = optdec._copies(np.stack([g, perturbed]), (d_in, d_out))
        assert [r for r, _, _ in copies] == [0, 1]


def test_a_copy_of_a_copy_inherits_its_product_and_its_distance(rng):
    # [G, M^dagger G M, M^dagger G M + delta]: the third member matches the
    # second directly, so it takes the second's representative and (V, W),
    # and its e adds its own distance to the second's e. Once that sum
    # passes SECTOR_TOL * ||G||, it does not join class 0 through the second,
    # although its own distance alone is within the bound.
    pieces = optdec._refine_sectors(optdec._sector_problems(*SETTINGS["fivequbit"].build(0.5)))
    prob = pieces[1]
    d_in, d_out = prob.dim_in, prob.dim_out
    g = herm_part(prob.objective)
    bound = optdec.SECTOR_TOL * np.linalg.norm(g)
    m = np.kron(_random_unitary(rng, d_in), _random_unitary(rng, d_out))
    second = herm_part(dag(m) @ g @ m)
    h = oracles.random_hermitian(rng, prob.dim)
    h /= np.linalg.norm(h)
    _, (r, (v2, w2), e2) = optdec._copies(np.stack([g, second]), (d_in, d_out))
    assert r == 0 and 0 < e2 < bound / 10
    budget = bound - e2

    # a fourth member, a phase conjugate of the second, joins it in the gauge
    # and composes the second's V with the gauge's phases
    d = np.kron(np.diag(np.exp(2j * np.pi * rng.uniform(size=d_in))), np.eye(d_out))
    third = second + 0.5 * budget * h
    fourth = herm_part(dag(d) @ second @ d)
    copies = optdec._copies(np.stack([g, second, third, fourth]), (d_in, d_out))
    assert [r for r, _, _ in copies] == [0, 0, 0, 0]
    assert copies[1][2] == e2
    (v3, w3), e3 = copies[2][1:]
    assert np.array_equal(v3, v2) and np.array_equal(w3, w2)
    assert abs(e3 - (e2 + np.linalg.norm(third - second))) <= 1e-12 * e3
    (v4, w4), e4 = copies[3][1:]
    assert np.array_equal(w4, w2) and e2 < e4 <= bound
    m4 = np.kron(v4, w4)
    assert np.linalg.norm(fourth - dag(m4) @ g @ m4) <= e4

    third = second + 1.01 * budget * h
    assert np.linalg.norm(third - second) <= bound
    r3, vw3, _ = optdec._copies(np.stack([g, second, third]), (d_in, d_out))[2]
    assert r3 != 0 or vw3 is None or not np.array_equal(vw3[0], v2)
