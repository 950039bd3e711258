import numpy as np
import pytest

from petzlab import bench, decoders, optdec, quantum
from petzlab.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFinite,
    NotPsd,
    NotTracePreserving,
)
from petzlab.matcore import dag, kron, partial_trace
from petzlab.quantum import (
    KrausChannel,
    adjoint_apply,
    apply_channel,
    channel_from_choi,
    channel_on_purification,
    choi_of_channel,
    complementary_channel,
    density_operator,
    entanglement_fidelity_direct,
    kraus_channel,
    make_channel,
    make_code_source,
    code_logical_states,
    purify,
    stinespring_dilation,
    tensor_power,
    validate_cptp,
)

import oracles


def _random_channel(rng, d_in, d_out, n_kraus, **labels):
    return kraus_channel(oracles.random_kraus(rng, d_in, d_out, n_kraus), **labels)


# -- validate_cptp ------------------------------------------------------------


def test_validate_identity_channel():
    validate_cptp(kraus_channel([np.eye(2)]))


def test_validate_bitflip():
    validate_cptp(make_channel("bitflip", 0.3))


def test_kraus_channel_rejects_empty_list():
    with pytest.raises(DimensionMismatch):
        kraus_channel([])


# -- the Kraus list is checked once as a stack ------------------------------------------

_NAN_OP = np.array([[1.0, np.nan], [0.0, 1.0]])
_INF_OP = np.array([[1.0, 0.0], [0.0, 1j * np.inf]])
BAD_KRAUS_LISTS = {
    "empty": [],
    "wrong_shape": [np.eye(2), np.eye(3)],
    "one_d": [np.ones(2)],
    "three_d": [np.eye(2), np.ones((2, 2, 2))],
    "nan": [np.eye(2), _NAN_OP],
    "inf": [_INF_OP],
    "nan_before_wrong_shape": [_NAN_OP, np.eye(3)],
    "wrong_shape_before_nan": [np.eye(3), _NAN_OP],
    "three_d_before_nan": [np.ones((2, 2, 2)), _NAN_OP],
    "nan_before_three_d": [_NAN_OP, np.ones((2, 2, 2))],
}


def _raised(f, *args):
    with pytest.raises((DimensionMismatch, NonFinite)) as err:
        f(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case", sorted(BAD_KRAUS_LISTS))
def test_kraus_stack_check_raises_as_per_operator_check(case):
    # the same error type and message as the check of one operator at a time
    ops = BAD_KRAUS_LISTS[case]
    assert _raised(KrausChannel, tuple(ops), 2, 2) == _raised(
        oracles.kraus_ops_checked_per_operator, ops, 2, 2
    )
    assert _raised(kraus_channel, ops) == _raised(oracles.kraus_channel_checked_per_operator, ops)


def _stack_dtype(ops):
    """float64 when every operator's imaginary part is exactly 0, else complex128."""
    return np.complex128 if any(np.imag(k).any() for k in ops) else np.float64


def test_kraus_stack_check_keeps_values_and_converts_once(monkeypatch, rng):
    lists = [
        [np.eye(2, dtype=int), [[0, 1], [1, 0]]],
        list(oracles.random_kraus(rng, 3, 4, 3)),
        list(make_channel("amplitude_damping", 0.3, 5).kraus_ops),
        [np.eye(2, dtype=complex) / np.sqrt(2), [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]]],
    ]
    for ops in lists:
        ref = oracles.kraus_ops_checked_per_operator(ops, len(ops[0][0]), len(ops[0]))
        calls = []
        real = quantum.as_cmatrix
        monkeypatch.setattr(quantum, "as_cmatrix", lambda m: calls.append(1) or real(m))
        ch = KrausChannel(kraus_ops=tuple(ops), dim_in=ref[0].shape[1], dim_out=ref[0].shape[0])
        monkeypatch.undo()
        assert calls == []
        assert len(ch.kraus_ops) == len(ref)
        assert ch.kraus_ops.dtype == _stack_dtype(ops)
        for k, r in zip(ch.kraus_ops, ref):
            assert np.array_equal(k, r)


def _assert_one_stack(ch, ref=None):
    """kraus_ops is one C-contiguous (L, d_out, d_in) array, float64 exactly
    when the operators (``ref`` if given) are real and complex128 otherwise,
    equal to the per-operator list ``ref`` if given, and its Kraus sum is
    the sum taken one operator at a time, bit for bit."""
    ops = ch.kraus_ops
    assert type(ops) is np.ndarray and ops.flags.c_contiguous
    assert ops.dtype == _stack_dtype(ops if ref is None else ref)
    assert ops.ndim == 3 and ops.shape[1:] == (ch.dim_out, ch.dim_in)
    if ref is not None:
        assert len(ops) == len(ref)
        assert all(np.array_equal(k, r) for k, r in zip(ops, ref))
    assert np.array_equal(ch.kraus_sum(), oracles.kraus_sum_loop(ch))


def test_kraus_ops_is_one_stack_from_sequences(rng):
    ops = oracles.random_kraus(rng, 3, 4, 3)
    ref = oracles.kraus_ops_checked_per_operator(ops, 3, 4)
    for given in (tuple(ops), list(ops), np.array(ops)):
        _assert_one_stack(KrausChannel(given, dim_in=3, dim_out=4), ref)
    _assert_one_stack(kraus_channel(ops), ref)
    # a strided view of a stack (here the adjoint map's operators) is copied to C order
    _assert_one_stack(KrausChannel(dag(np.array(ops)), dim_in=4, dim_out=3), [dag(k) for k in ref])
    # make_channel drops the zero operator sqrt(p) X at p = 0
    _assert_one_stack(make_channel("bitflip", 0.0), [np.eye(2)])


def test_kraus_ops_is_one_stack_from_every_derived_channel(rng):
    base = make_channel("amplitude_damping", 0.3)
    _assert_one_stack(tensor_power(base, 3), oracles.tensor_power_kron(base.kraus_ops, 3))

    ch = _random_channel(rng, 2, 3, 3)
    c = choi_of_channel(ch)
    _assert_one_stack(channel_from_choi(c, (2, 3)), oracles.choi_kraus_per_eigenvector(c, (2, 3)))

    iso = stinespring_dilation(ch)
    v = iso.v.reshape(iso.dim_out, iso.dim_env, iso.dim_in)
    _assert_one_stack(complementary_channel(ch), [v[b] for b in range(iso.dim_out)])


def test_kraus_ops_is_one_stack_in_the_reduced_sdp(monkeypatch):
    rho, ch = bench.SETTINGS["lncy4"].build(0.3)
    seen = []
    real = optdec.build_fidelity_sdp
    monkeypatch.setattr(optdec, "build_fidelity_sdp", lambda r, c: seen.append(c) or real(r, c))
    _, emb = optdec.reduce_problem(rho, ch)
    (reduced,) = seen
    ref = [dag(emb.v_in) @ k @ emb.v_out for k in ch.kraus_ops]
    _assert_one_stack(reduced, ref)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_kraus_ops_is_one_stack_in_built_decoders(p):
    # at p = 0 sigma_B has a kernel, so the Petz-family decoders end in its
    # completion, |u_j><k_m| / sqrt(r) with m slowest
    rho, ch = bench.SETTINGS["bitflip3"].build(p)
    (_, u_a), (_, _, kernel) = decoders._spectra(rho, ch)
    completion = oracles.kernel_completion_outer(u_a, kernel)
    assert len(completion) == (12 if p == 0.0 else 0)
    for dec in (decoders.build_petz(rho, ch), decoders.build_twirled_petz(rho, ch)):
        _assert_one_stack(dec.channel)
        assert dec.channel.kraus_ops.dtype == np.float64, dec.kind
        tail = dec.channel.kraus_ops[len(dec.channel.kraus_ops) - len(completion) :]
        assert len(tail) == len(completion)
        assert all(np.array_equal(k, r) for k, r in zip(tail, completion))
    sw = decoders.build_sw(rho, ch)[0].channel
    _assert_one_stack(sw)
    assert sw.kraus_ops.dtype == np.float64
    # bitflip3 is real; the rotation's phases exp(-0.35i theta) make the
    # stack complex, except at p = 0, where every log-ratio theta is 0
    rotated = decoders.build_rotated_petz(rho, ch, 0.7).channel
    _assert_one_stack(rotated)
    assert rotated.kraus_ops.dtype == (np.complex128 if p else np.float64)


def test_validate_rejects_double_identity():
    ch = KrausChannel(kraus_ops=(np.eye(2), np.eye(2)), dim_in=2, dim_out=2)
    with pytest.raises(NotTracePreserving) as err:
        validate_cptp(ch)
    assert err.value.residual > 1.0


# -- apply_channel / adjoint --------------------------------------------------


def test_apply_identity():
    x = np.arange(4).reshape(2, 2).astype(complex)
    ch = kraus_channel([np.eye(2)])
    assert np.allclose(apply_channel(ch, x), x)


def test_apply_amplitude_damping_full():
    ch = make_channel("amplitude_damping", 1.0)
    rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
    out = apply_channel(ch, rho)
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_apply_bitflip_by_hand():
    p = 0.3
    ch = make_channel("bitflip", p)
    zero = np.diag([1.0, 0.0]).astype(complex)
    out = apply_channel(ch, zero)
    assert np.allclose(out, np.diag([1 - p, p]))


def test_apply_channel_matches_kronecker_padded_sum(rng):
    # on the middle of three factors to roundoff; on a single factor, where
    # the padding is trivial, bit for bit
    ch = _random_channel(rng, 3, 2, 4)
    x = oracles.random_psd(rng, 2 * 3 * 2)
    out = apply_channel(ch, x, dims=(2, 3, 2), acting_on=1)
    ref = oracles.apply_channel_kron(ch, x, (2, 3, 2), 1)
    assert out.shape == (8, 8)
    assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)
    x = oracles.random_psd(rng, 3)
    assert np.array_equal(apply_channel(ch, x), oracles.apply_channel_kron(ch, x, (3,), 0))


def test_adjoint_identity():
    y = np.arange(4).reshape(2, 2).astype(complex)
    assert np.allclose(adjoint_apply(kraus_channel([np.eye(2)]), y), y)


def test_adjoint_unital(rng):
    ch = _random_channel(rng, 3, 4, 2)
    assert np.allclose(adjoint_apply(ch, np.eye(4)), np.eye(3), atol=1e-10)


def test_adjoint_duality(rng):
    ch = _random_channel(rng, 3, 4, 2)
    x = oracles.random_psd(rng, 3)
    y = oracles.random_psd(rng, 4)
    lhs = np.trace(y @ apply_channel(ch, x))
    rhs = np.trace(adjoint_apply(ch, y) @ x)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


# -- tensor_power --------------------------------------------------------------


def test_tensor_power_identity():
    ch = tensor_power(kraus_channel([np.eye(2)]), 3)
    assert ch.dim_in == 8
    x = np.arange(64).reshape(8, 8).astype(complex)
    assert np.allclose(apply_channel(ch, x), x)


def test_tensor_power_bitflip_weights():
    p = 0.3
    ch = tensor_power(make_channel("bitflip", p), 2)
    weights = sorted(np.trace(k @ dag(k)).real / 4 for k in ch.kraus_ops)
    assert np.allclose(weights, sorted([(1 - p) ** 2, p * (1 - p), p * (1 - p), p**2]))


@pytest.mark.parametrize(
    "kind, n", [("bitflip", 3), ("amplitude_damping", 4), ("amplitude_damping", 5), ("depolarizing", 3)]
)
def test_tensor_power_bit_identical_to_iterated_kron(kind, n):
    ch = make_channel(kind, 0.3)
    ops = tensor_power(ch, n).kraus_ops
    ref = oracles.tensor_power_kron(ch.kraus_ops, n)
    assert len(ops) == len(ref)
    assert all(np.array_equal(k, r) for k, r in zip(ops, ref))


def test_tensor_power_amplitude_damping_cptp():
    ch = tensor_power(make_channel("amplitude_damping", 0.37), 4)
    assert len(ch.kraus_ops) == 16
    validate_cptp(ch)


def test_tensor_power_matches_iterated_kron(rng):
    base = make_channel("amplitude_damping", 0.2)
    ch3 = tensor_power(base, 3)
    x = oracles.random_psd(rng, 8)
    by_slots = x
    for slot in range(3):
        by_slots = apply_channel(base, by_slots, dims=(2, 2, 2), acting_on=slot)
    assert np.linalg.norm(apply_channel(ch3, x) - by_slots) <= 1e-9


def test_tensor_power_invalid():
    with pytest.raises(InvalidParameter):
        tensor_power(make_channel("bitflip", 0.1), 0)


# -- Stinespring and complementary channel ------------------------------------


def test_stinespring_identity_qubit():
    iso = stinespring_dilation(kraus_channel([np.eye(2)]))
    assert iso.dim_env == 4
    assert np.allclose(dag(iso.v) @ iso.v, np.eye(2), atol=1e-12)


def test_stinespring_amplitude_damping_active_slots():
    iso = stinespring_dilation(make_channel("amplitude_damping", 0.5))
    assert iso.dim_env == 4
    vt = iso.v.reshape(2, 4, 2)
    active = [l for l in range(4) if np.linalg.norm(vt[:, l, :]) > 0]
    assert active == [0, 1]


def test_stinespring_reconstructs_channel(rng):
    ch = make_channel("bitflip", 0.3)
    iso = stinespring_dilation(ch)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            big = iso.v @ basis @ dag(iso.v)
            rec = partial_trace(big, (2, iso.dim_env), keep=0)
            assert np.linalg.norm(rec - apply_channel(ch, basis)) <= 1e-10


def test_complementary_of_identity_is_constant(rng):
    comp = complementary_channel(kraus_channel([np.eye(2)]))
    x = oracles.random_state(rng, 2)
    out = apply_channel(comp, x)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(out, expected, atol=1e-12)
    assert np.linalg.matrix_rank(out) == 1


def test_complementary_consistency(rng):
    ch = _random_channel(rng, 3, 2, 3)
    comp = complementary_channel(ch)
    iso = stinespring_dilation(ch)
    x = oracles.random_psd(rng, 3)
    big = iso.v @ x @ dag(iso.v)
    assert np.linalg.norm(
        partial_trace(big, (2, iso.dim_env), keep=0) - apply_channel(ch, x)
    ) <= 1e-9
    assert np.linalg.norm(
        partial_trace(big, (2, iso.dim_env), keep=1) - apply_channel(comp, x)
    ) <= 1e-9


def test_complementary_preserves_trace(rng):
    comp = complementary_channel(make_channel("amplitude_damping", 0.4))
    x = oracles.random_psd(rng, 2)
    assert np.trace(apply_channel(comp, x)) == pytest.approx(np.trace(x).real)


# -- Choi ----------------------------------------------------------------------


def test_choi_identity_channel():
    c = choi_of_channel(kraus_channel([np.eye(2)]))
    phi = np.array([1, 0, 0, 1], dtype=complex)
    assert np.allclose(c, np.outer(phi, phi))
    assert np.trace(c).real == pytest.approx(2.0)
    assert np.linalg.matrix_rank(c) == 1


def test_choi_fully_depolarizing():
    c = choi_of_channel(make_channel("depolarizing", 1.0))
    assert np.allclose(c, np.eye(4) / 2, atol=1e-12)


def test_choi_round_trip(rng):
    ch = make_channel("bitflip", 0.2)
    back = channel_from_choi(choi_of_channel(ch), (2, 2))
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            assert np.linalg.norm(
                apply_channel(back, basis) - apply_channel(ch, basis)
            ) <= 1e-9


def test_channel_from_choi_rejects_bad_input():
    with pytest.raises(NotPsd):
        channel_from_choi(np.diag([1.0, 1.0, 1.0, -1.0]), (2, 2))
    with pytest.raises(NotTracePreserving):
        channel_from_choi(np.eye(4), (2, 2))


def _rank_one_sum_instances(rng):
    """(rho, N) pairs: full-rank and rank-deficient random sources through
    random channels, plus the complementary channel of lncy4 at p = 0.3."""
    cases = [(3, 3, 3, 3), (4, 2, 4, 2), (4, 3, 2, 3), (3, 5, 1, 1), (4, 6, 3, 2)]
    for d_a, d_b, rank, n_kraus in cases:
        rho = density_operator(oracles.random_state(rng, d_a, rank=rank))
        yield rho, _random_channel(rng, d_a, d_b, n_kraus)
    rho, ch = make_code_source("lncy4"), make_channel("amplitude_damping", 0.3, 4)
    yield rho, complementary_channel(ch)


def test_rank_one_sums_match_per_kraus_loop(rng):
    # sigma_RB and the Choi matrix as one product B B^dagger over the stacked
    # branch (Choi) vectors, against one outer product per Kraus operator.
    for rho, ch in _rank_one_sum_instances(rng):
        pur = purify(rho)
        loop = oracles.channel_on_purification_loop(pur, ch)
        sigma_rb = channel_on_purification(pur, ch).matrix
        assert np.linalg.norm(sigma_rb - loop) <= 1e-13 * np.linalg.norm(loop)
        loop = oracles.choi_of_channel_loop(ch)
        assert np.linalg.norm(choi_of_channel(ch) - loop) <= 1e-13 * np.linalg.norm(loop)


# -- purification --------------------------------------------------------------


def test_purify_pure_state():
    pur = purify(density_operator(np.diag([1.0, 0.0])))
    assert pur.rank == 1
    assert np.allclose(np.abs(pur.vector), [1.0, 0.0])


def test_purify_maximally_mixed():
    pur = purify(density_operator(np.eye(2) / 2))
    assert pur.rank == 2
    assert np.allclose(pur.schmidt_coeffs, [0.5, 0.5])


def test_purify_code_source():
    rho = make_code_source("bitflip3")
    pur = purify(rho)
    assert pur.rank == 2
    proj = np.outer(pur.vector, pur.vector.conj())
    rec = partial_trace(proj, (2, 8), keep=1)
    assert np.linalg.norm(rec - rho.matrix) <= 1e-12


def test_purification_invariance_of_entanglement_fidelity(rng):
    # fidelity from a rotated purification matches the canonical one
    for _ in range(20):
        rho = density_operator(oracles.random_state(rng, 3))
        ch = _random_channel(rng, 3, 3, 2)
        direct = entanglement_fidelity_direct(rho, ch)
        pur = purify(rho)
        g = rng.standard_normal((pur.rank, pur.rank)) + 1j * rng.standard_normal(
            (pur.rank, pur.rank)
        )
        u = np.linalg.qr(g)[0]
        rotated = (kron(u, np.eye(3)) @ pur.vector).reshape(pur.rank, 3)
        out = np.zeros((pur.rank * 3, pur.rank * 3), dtype=complex)
        for k in ch.kraus_ops:
            branch = (rotated @ k.T).reshape(-1)
            out += np.outer(branch, branch.conj())
        alt = np.vdot(rotated.reshape(-1), out @ rotated.reshape(-1)).real
        assert abs(direct - alt) <= 1e-10


# -- named channels and codes ---------------------------------------------------


def test_bitflip_zero_is_identity(rng):
    ch = make_channel("bitflip", 0.0)
    x = oracles.random_psd(rng, 2)
    assert np.allclose(apply_channel(ch, x), x)


def test_amplitude_damping_kraus_forms():
    p = 0.36
    ch = make_channel("amplitude_damping", p)
    k0, k1 = ch.kraus_ops
    assert np.allclose(k0, np.diag([1.0, np.sqrt(1 - p)]))
    expected = np.zeros((2, 2))
    expected[0, 1] = np.sqrt(p)
    assert np.allclose(k1, expected)


def test_depolarizing_full():
    ch = make_channel("depolarizing", 1.0)
    for m in (np.diag([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]])):
        assert np.allclose(apply_channel(ch, m.astype(complex)), np.eye(2) / 2, atol=1e-12)


def test_make_channel_rejects_bad_parameter():
    with pytest.raises(InvalidParameter):
        make_channel("bitflip", 1.5)
    with pytest.raises(InvalidParameter):
        make_channel("unknown", 0.5)


@pytest.mark.parametrize("n", [0, -1])
def test_make_channel_rejects_non_positive_power(n):
    with pytest.raises(InvalidParameter):
        make_channel("bitflip", 0.1, n=n)


def test_bitflip3_source_support():
    rho = make_code_source("bitflip3")
    support = np.flatnonzero(np.abs(np.diag(rho.matrix)) > 1e-12)
    assert list(support) == [0b000, 0b111]
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def test_lncy4_logical_amplitudes():
    zero, one, _ = code_logical_states("lncy4")
    amp = 1 / np.sqrt(2)
    assert zero[0b0000] == pytest.approx(amp)
    assert zero[0b1111] == pytest.approx(amp)
    assert one[0b0011] == pytest.approx(amp)
    assert one[0b1100] == pytest.approx(amp)


def test_fivequbit_knill_laflamme():
    zero, one, n = code_logical_states("fivequbit")
    assert abs(np.vdot(zero, one)) <= 1e-12
    errors = oracles.single_qubit_errors(n)
    assert len(errors) == 16
    assert oracles.knill_laflamme_violation(zero, one, errors) <= 1e-10


def test_code_source_rank_two():
    for kind in ("bitflip3", "lncy4", "fivequbit"):
        rho = make_code_source(kind)
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 2


def test_code_source_is_built_once_and_read_only():
    for kind in ("bitflip3", "lncy4", "fivequbit"):
        rho = make_code_source(kind)
        assert make_code_source(kind) is rho
        for array in (rho.matrix, rho.spectrum.eigenvalues, rho.spectrum.eigenvectors):
            with pytest.raises(ValueError):
                array[...] = 0
    # an unknown kind still raises, and nothing is cached for it
    hits = make_code_source.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvalidParameter):
            make_code_source("steane")
    assert make_code_source.cache_info().currsize == hits


# -- entanglement fidelity -------------------------------------------------------


def test_ef_identity_channel(rng):
    rho = density_operator(oracles.random_state(rng, 3))
    assert entanglement_fidelity_direct(rho, kraus_channel([np.eye(3)])) == pytest.approx(1.0)


def test_ef_depolarizing_maximally_mixed():
    rho = density_operator(np.eye(2) / 2)
    assert entanglement_fidelity_direct(rho, make_channel("depolarizing", 1.0)) == pytest.approx(
        0.25, abs=1e-12
    )


def test_ef_amplitude_damping_no_decoder():
    rho = density_operator(np.eye(2) / 2)
    ch = make_channel("amplitude_damping", 0.36)
    val = entanglement_fidelity_direct(rho, ch)
    # Kraus-trace identity: F_e = sum_k |tr(rho K_k)|^2
    oracle = sum(abs(np.trace(rho.matrix @ k)) ** 2 for k in ch.kraus_ops)
    assert val == pytest.approx(0.81, abs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_ef_requires_endomorphic():
    rho = density_operator(np.eye(2) / 2)
    ch = KrausChannel(kraus_ops=(np.zeros((3, 2), dtype=complex),), dim_in=2, dim_out=3)
    with pytest.raises(DimensionMismatch):
        entanglement_fidelity_direct(rho, ch)


def test_ef_matches_purification_oracle(rng):
    from petzlab.decoders import identity_decoder

    cases = []
    for d, rank, n_kraus in [(3, 3, 2), (3, 1, 2), (4, 2, 3), (4, 3, 1)]:
        rho = density_operator(oracles.random_state(rng, d, rank=rank))
        cases.append((rho, _random_channel(rng, d, d, n_kraus)))
    for p in np.linspace(0.0, 1.0, 5):
        cases.append((make_code_source("lncy4"), make_channel("amplitude_damping", p, n=4)))
    for rho, ch in cases:
        reference = oracles.fe_of_decoder_purified(rho, ch, identity_decoder(rho.dim))
        assert abs(entanglement_fidelity_direct(rho, ch) - reference) <= 1e-12


def test_bitflip3_perfect_at_zero_noise():
    rho = make_code_source("bitflip3")
    ch = make_channel("bitflip", 0.0, n=3)
    assert entanglement_fidelity_direct(rho, ch) == pytest.approx(1.0, abs=1e-10)


def test_channel_on_purification_marginals(rng):
    rho = density_operator(oracles.random_state(rng, 3))
    ch = _random_channel(rng, 3, 2, 2)
    srb = channel_on_purification(purify(rho), ch)
    assert srb.dims == (3, 2)
    assert srb.labels == ("R", "B")
    assert np.allclose(srb.marginal("B"), apply_channel(ch, rho.matrix), atol=1e-10)
    assert np.trace(srb.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_stinespring_reduces_redundant_kraus(rng):
    # six redundant Kraus operators for a qubit channel still dilate into d_E = 4
    base = make_channel("depolarizing", 0.5)
    redundant = [k / np.sqrt(2) for k in base.kraus_ops] + [
        k / np.sqrt(2) for k in base.kraus_ops
    ]
    ch = kraus_channel(redundant)
    assert len(ch.kraus_ops) == 8
    iso = stinespring_dilation(ch)
    assert iso.dim_env == 4
    assert np.allclose(dag(iso.v) @ iso.v, np.eye(2), atol=1e-10)
    x = oracles.random_psd(rng, 2)
    big = iso.v @ x @ dag(iso.v)
    assert np.linalg.norm(
        partial_trace(big, (2, 4), keep=0) - apply_channel(ch, x)
    ) <= 1e-9
