import numpy as np
import pytest

from petzlab.errors import (
    DimensionMismatch,
    InvalidOrder,
    NonFinite,
    NotHermitian,
    NotPsd,
    NotState,
)
from petzlab.matcore import (
    dag,
    fidelity,
    herm_eig,
    matrix_power_on_support,
    partial_trace,
    schatten_norm,
    svd,
)

import oracles


def test_herm_eig_identity():
    eig = herm_eig(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1, 1, 1])


def test_herm_eig_diagonal_sorted_descending():
    eig = herm_eig(np.diag([2.0, 0.0, -1.0]))
    assert np.allclose(eig.eigenvalues, [2, 0, -1])


def test_herm_eig_matches_charpoly_roots(rng):
    h = oracles.random_hermitian(rng, 6)
    eig = herm_eig(h)
    roots = oracles.charpoly_eigenvalues(h)
    assert np.allclose(eig.eigenvalues, roots, atol=1e-8)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_rejects_non_finite():
    with pytest.raises(NonFinite):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_herm_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros((2, 3)))


def test_herm_eig_invariants_random(rng):
    # reconstruction and unitarity residuals on random Hermitian matrices
    for _ in range(1000):
        dim = int(rng.integers(1, 33))
        h = oracles.random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10)))
        eig = herm_eig(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - eig.reconstruct()) <= 1e-10 * scale
        v = eig.eigenvectors
        assert np.linalg.norm(dag(v) @ v - np.eye(dim)) <= 1e-12 * dim


def test_herm_eig_retries_when_lapack_does_not_converge(rng, monkeypatch):
    # LAPACK's divide-and-conquer eigh can fail on a valid Hermitian matrix;
    # herm_eig then decomposes the same matrix from its upper triangle.
    real_eigh = np.linalg.eigh
    calls = []

    def eigh_failing_on_lower(a, UPLO="L"):
        calls.append(UPLO)
        if UPLO == "L":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_lower)
    h = oracles.random_hermitian(rng, 6)
    eig = herm_eig(h)
    assert calls == ["L", "U"]
    assert np.linalg.norm(h - eig.reconstruct()) <= 1e-12 * np.linalg.norm(h)
    assert np.all(np.diff(eig.eigenvalues) <= 0)


def test_svd_reconstruction(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rec = svd(m)
    assert np.linalg.norm(rec.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)
    assert np.linalg.norm(dag(rec.u) @ rec.u - np.eye(5)) <= 1e-12 * 5
    assert np.linalg.norm(rec.vh @ dag(rec.vh) - np.eye(5)) <= 1e-12 * 5


def test_power_identity_inverse_sqrt():
    assert np.allclose(matrix_power_on_support(np.eye(2), -0.5), np.eye(2))


def test_power_on_support_only():
    out = matrix_power_on_support(np.diag([4.0, 0.0]), 0.5)
    assert np.allclose(out, np.diag([2.0, 0.0]))


def test_power_imaginary_exponent():
    out = matrix_power_on_support(np.diag([np.e, 0.0]), 1j)
    assert np.allclose(out, np.diag([np.exp(1j), 0.0]))
    # unitary on the support, zero on the kernel
    assert abs(abs(out[0, 0]) - 1.0) < 1e-12
    assert abs(out[1, 1]) == 0.0


def test_power_rejects_non_psd():
    with pytest.raises(NotPsd):
        matrix_power_on_support(np.diag([1.0, -1.0]), 0.5)


def test_power_matches_inline_cut_oracle(rng):
    for dim, rank in [(4, 2), (5, 3), (6, 1), (6, 5), (3, 3)]:
        p = oracles.random_state(rng, dim, rank)
        for z in (0, 0.5, -0.5, -1, 1j, 0.3 - 0.7j):
            expected = oracles.matrix_power_on_support_inline(p, z)
            assert np.array_equal(matrix_power_on_support(p, z), expected), (dim, rank, z)


def test_every_support_split_follows_rank_cut(monkeypatch):
    """With RANK_CUT raised to 0.3, every site that splits a spectrum into
    support and kernel drops the eigenvalues below 0.3 of the largest."""
    from petzlab import matcore
    from petzlab.decoders import RotatedFidelity, _spectra
    from petzlab.infomeasures import entropy
    from petzlab.quantum import (
        channel_from_choi,
        choi_of_channel,
        density_operator,
        kraus_channel,
        make_channel,
        purify,
    )

    g = np.random.default_rng(3).standard_normal((3, 6)).view(np.complex128)
    u = np.linalg.qr(g)[0]
    rho = density_operator(u @ np.diag([0.6, 0.3, 0.1]) @ dag(u))
    flip = make_channel("bitflip", 0.2)  # Choi eigenvalues 1.6 and 0.4
    sigma_rb = density_operator(np.kron(np.diag([0.6, 0.3, 0.1]), np.diag([0.8, 0.2])), (3, 2))

    def observe():
        (lam, _), (_, _, kernel) = _spectra(rho, kraus_channel([np.eye(3)]))
        return (
            purify(rho).rank,
            len(channel_from_choi(choi_of_channel(flip), (2, 2)).kraus_ops),
            (lam.size, kernel.shape[1]),
            RotatedFidelity(sigma_rb)._theta.size,
            entropy(rho),
            round(np.trace(matrix_power_on_support(rho.matrix, 0)).real, 9),
        )

    default = observe()
    assert default[:4] == (3, 2, (3, 0), 6)
    assert default[5] == 3.0
    monkeypatch.setattr(matcore, "RANK_CUT", 0.3)
    cut = observe()
    assert cut[:4] == (2, 1, (2, 1), 2)
    assert cut[4] == pytest.approx(-0.6 * np.log2(0.6) - 0.3 * np.log2(0.3), abs=1e-12)
    assert cut[5] == 2.0


def test_power_composition(rng):
    p = oracles.random_psd(rng, 5)
    for z1, z2 in [(0.5, 0.5), (-0.5, 1.5), (0.3 + 1j, 0.7 - 1j)]:
        lhs = matrix_power_on_support(p, z1) @ matrix_power_on_support(p, z2)
        rhs = matrix_power_on_support(p, z1 + z2)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_partial_trace_product_state(rng):
    rho_a = oracles.random_state(rng, 3)
    rho_b = oracles.random_state(rng, 2)
    m = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(m, (3, 2), keep=0), rho_a)
    assert np.allclose(partial_trace(m, (3, 2), keep=1), rho_b)


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    m = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(m, (2, 2), keep=1), np.eye(2) / 2)


def test_partial_trace_matches_loop_oracle(rng):
    m = oracles.random_psd(rng, 4)
    for keep in (0, 1):
        assert np.allclose(
            partial_trace(m, (2, 2), keep), oracles.partial_trace_loops(m, 2, 2, keep)
        )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), (3, 2), keep=0)


def test_schatten_identity():
    assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3))


def test_schatten_trace_norm_diag():
    assert schatten_norm(np.diag([3.0, 4.0]), 1) == pytest.approx(7.0)


def test_schatten_quasi_norm_matches_singular_values(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    s = np.linalg.svd(m, compute_uv=False)
    assert schatten_norm(m, 0.5) == pytest.approx(np.sum(np.sqrt(s)) ** 2, rel=1e-12)


def test_schatten_invalid_order():
    with pytest.raises(InvalidOrder):
        schatten_norm(np.eye(2), 0.0)


def test_schatten_two_norm_is_frobenius(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert abs(schatten_norm(m, 2) ** 2 - np.vdot(m, m).real) <= 1e-10 * np.vdot(m, m).real


def test_fidelity_self():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_vs_maximally_mixed():
    zero = np.diag([1.0, 0.0]).astype(complex)
    mixed = np.eye(2) / 2
    assert fidelity(zero, mixed) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # eigendecomposition route: tr sqrt(sqrt(rho) sigma sqrt(rho))
    inner = zero @ mixed @ zero  # sqrt of a pure state is itself
    oracle = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None)))
    assert fidelity(zero, mixed) == pytest.approx(oracle, abs=1e-12)


def test_fidelity_symmetry_and_multiplicativity(rng):
    for _ in range(5):
        r1, s1 = oracles.random_state(rng, 3), oracles.random_state(rng, 3)
        r2, s2 = oracles.random_state(rng, 2), oracles.random_state(rng, 2)
        assert abs(fidelity(r1, s1) - fidelity(s1, r1)) <= 1e-9
        lhs = fidelity(np.kron(r1, r2), np.kron(s1, s2))
        assert abs(lhs - fidelity(r1, s1) * fidelity(r2, s2)) <= 1e-9


def test_fidelity_rejects_non_state():
    with pytest.raises(NotState):
        fidelity(np.eye(2), np.eye(2) / 2)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_trace_inequality_lemma(rng):
    # 0 <= Re tr[X Y^(s+it) X Y^(s-it)] <= tr[X Y^s X Y^s], imaginary part ~ 0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        x = oracles.random_psd(rng, dim)
        y = oracles.random_psd(rng, dim)
        s = float(rng.uniform(-1, 1))
        t = float(rng.uniform(-5, 5))
        y_plus = matrix_power_on_support(y, s + 1j * t)
        y_minus = matrix_power_on_support(y, s - 1j * t)
        y_s = matrix_power_on_support(y, s)
        rotated = complex(np.trace(x @ y_plus @ x @ y_minus))
        plain = float(np.trace(x @ y_s @ x @ y_s).real)
        assert rotated.real >= -1e-9
        assert rotated.real <= plain + 1e-9
        assert abs(rotated.imag) <= 1e-10 * max(1.0, plain)
