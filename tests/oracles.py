"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial roots, partial traces from explicit
index loops, minimizations from parameter grids, integrals from dense
trapezoids, the twirled Choi matrix from one rotated decoder per quadrature
node or from a dense Choi matrix and its full eigendecomposition, the SW
decoder from a literal dense transcription of its construction, the SDP
Newton step from two complex Schur solves, decoder fidelities and the SDP
objective from the canonical purification and sigma_RB, the rotated Petz
Kraus list from one matrix power per factor, and the matrix power on the
support from its own PSD check and its own inline rank cut.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from petzlab.decoders import _spectra, build_rotated_petz
from petzlab.errors import MaxIterations, NotPsd, NumericalBreakdown
from petzlab.matcore import (
    HERM_TOL,
    RANK_CUT,
    dag,
    herm_eig,
    herm_part,
    kron,
    matrix_power_on_support,
    partial_trace,
    psd_sqrt,
)
from petzlab.optdec import SdpSolution, _nt_scaling, _psd_step, _schur_matrix
from petzlab.quantum import (
    apply_channel,
    channel_from_choi,
    channel_on_purification,
    choi_of_channel,
    purify,
    stinespring_dilation,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# -- random instances --------------------------------------------------------


def random_state(rng, dim, rank=None):
    """Wishart-style random density matrix."""
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dag(g)
    return m / np.trace(m).real


def random_kraus(rng, d_in, d_out, n_kraus):
    """Kraus operators of a Haar-ish random CPTP map."""
    n_kraus = max(n_kraus, -(-d_in // d_out))  # trace preservation needs d_out*n >= d_in
    g = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q = np.linalg.qr(g)[0][:, :d_in]
    return [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + dag(g)) / 2


def random_psd(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g @ dag(g)) / dim


# -- spectra and traces ------------------------------------------------------


def charpoly_eigenvalues(h):
    """Eigenvalues as characteristic-polynomial roots (Faddeev-LeVerrier
    coefficients, companion-matrix root finder). No call to eigh."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def matrix_power_on_support_inline(p, z):
    """Power of a PSD matrix on its support, with the PSD check and the cut
    at RANK_CUT * max(w[0], 0) written out inline."""
    eig = herm_eig(p)
    w = eig.eigenvalues
    if w.size and w[-1] < -HERM_TOL * max(1.0, float(w[0])):
        raise NotPsd(f"minimum eigenvalue {w[-1]:.3e} is negative beyond tolerance")
    cut = RANK_CUT * max(float(w[0]), 0.0) if w.size else 0.0
    kept = w > cut
    powered = np.zeros(w.shape, dtype=np.complex128)
    powered[kept] = np.exp(np.asarray(z, dtype=np.complex128) * np.log(w[kept]))
    v = eig.eigenvectors
    return (v * powered) @ dag(v)


def partial_trace_loops(m, d_a, d_b, keep):
    """Elementwise index-sum partial trace."""
    if keep == 0:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for b in range(d_b):
                    out[i, j] += m[i * d_b + b, j * d_b + b]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for a in range(d_a):
                    out[i, j] += m[a * d_b + i, a * d_b + j]
    return out


# -- brute-force minimizations over qubit states ------------------------------


def bloch_state(x, y, z):
    r = np.sqrt(x * x + y * y + z * z)
    if r > 1.0 - 1e-9:
        x, y, z = (c * (1.0 - 1e-9) / r for c in (x, y, z))
    return 0.5 * (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def minimize_over_qubit(f, grid=21):
    """Grid search over the Bloch ball followed by Nelder-Mead refinement."""
    best_val, best_b = np.inf, (0.0, 0.0, 0.0)
    lin = np.linspace(-0.98, 0.98, grid)
    for x in lin:
        for y in lin:
            for z in lin:
                if x * x + y * y + z * z <= 1:
                    v = f(bloch_state(x, y, z))
                    if v < best_val:
                        best_val, best_b = v, (x, y, z)
    res = minimize(
        lambda b: f(bloch_state(*b)),
        best_b,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000},
    )
    return min(best_val, float(res.fun))


# -- quadrature ---------------------------------------------------------------


def beta0_trapezoid(g, t_max=10.0, n=1_000_001):
    ts = np.linspace(-t_max, t_max, n)
    beta = (np.pi / 2) / (np.cosh(np.pi * ts) + 1)
    vals = np.array([g(t) for t in ts])
    return float(np.trapezoid(beta * vals, ts))


def twirled_choi_per_node(rho, ch, nodes, weights):
    """sum_i w_i Choi(R^(t_i)) from one materialized rotated decoder per node,
    renormalized to exact trace preservation."""
    d_in, d_out = ch.dim_out, ch.dim_in
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for t_i, w_i in zip(nodes, weights):
        rotated = build_rotated_petz(rho, ch, float(t_i))
        choi += w_i * choi_of_channel(rotated.channel)
    tr_out = partial_trace(choi, (d_in, d_out), keep=0)
    fix = kron(matrix_power_on_support(tr_out, -0.5), np.eye(d_out))
    return fix @ choi @ dag(fix)


def twirled_decoder_dense(rho, ch, nodes, weights):
    """The twirled decoder as a Kraus channel B -> A from its full
    (d_B d_A)^2 Choi matrix: the spectral core C o (Z diag(w) Z^dagger) and
    the kernel completion (weight sum_i w_i) in the full product basis,
    renormalized through the d_B x d_B partial trace, then split into Kraus
    operators by the eigendecomposition of :func:`channel_from_choi`."""
    (lam, u_a), (mu, u_b, kernel) = _spectra(rho, ch)
    proj = dag(u_b) @ np.stack(ch.kraus_ops) @ u_a
    vecs = (proj.conj() * np.sqrt(lam) / np.sqrt(mu)[:, None]).reshape(len(ch.kraus_ops), -1)
    petz = vecs.T @ vecs.conj()
    theta = (np.log(lam)[None, :] - np.log(mu)[:, None]).reshape(-1)
    z = np.exp(-0.5j * np.multiply.outer(theta, nodes))
    basis = np.kron(u_b.conj(), u_a)
    choi = basis @ (petz * ((z * weights) @ dag(z))) @ dag(basis)
    if kernel.shape[1]:
        completion = np.kron(kernel.conj() @ kernel.T, u_a @ dag(u_a)) / u_a.shape[1]
        choi += float(np.sum(weights)) * completion
    d_in, d_out = ch.dim_out, ch.dim_in
    tr_out = partial_trace(choi, (d_in, d_out), keep=0)
    fix = kron(matrix_power_on_support(tr_out, -0.5), np.eye(d_out))
    return channel_from_choi(fix @ choi @ dag(fix), (d_in, d_out))


# -- decoder fidelity, the SDP objective and the rotated Petz map, one step per factor ----


def fidelity_objective_purified(rho, ch):
    """Objective G of the fidelity SDP from the canonical purification |rho>
    and sigma_RB: G^T[(b, a), (c, d)] = sum_(r, s) conj(psi[r, a])
    sigma_RB[(r, b), (s, c)] psi[s, d], Hermitian part."""
    pur = purify(rho)
    sigma_rb = channel_on_purification(pur, ch)
    d_r, d_b = sigma_rb.dims
    psi = pur.vector.reshape(d_r, rho.dim)
    sig4 = sigma_rb.matrix.reshape(d_r, d_b, d_r, d_b)
    h = np.einsum("ra,rbsc,sd->bacd", psi.conj(), sig4, psi, optimize=True)
    return herm_part(h.reshape(d_b * rho.dim, d_b * rho.dim).T)


def fe_of_decoder_purified(rho, ch, decoder):
    """<rho|(1 tensor D o N)(|rho><rho|)|rho> from the canonical purification:
    sum_l <w_l|sigma_RB|w_l> with |w_l> = (1 tensor D_l^dagger)|rho>,
    clamped to [0, 1]."""
    pur = purify(rho)
    sigma_rb = channel_on_purification(pur, ch)
    vec = pur.vector.reshape(pur.rank, ch.dim_in)
    w = np.stack([(vec @ k.conj()).reshape(-1) for k in decoder.channel.kraus_ops])
    val = np.einsum("li,ij,lj->", w.conj(), sigma_rb.matrix, w, optimize=True)
    return float(min(1.0, max(0.0, val.real)))


def rotated_petz_kraus_literal(rho, ch, t):
    """Kraus list rho^((1-it)/2) K_i^dagger sigma_B^((-1+it)/2), each power
    from its own matrix_power_on_support, plus the kernel completion
    |u_j><k_m| / sqrt(r) over the support vectors u_j of rho (r of them) and
    the kernel vectors k_m of sigma_B at the relative cut RANK_CUT."""
    sigma_b = apply_channel(ch, rho.matrix)
    rho_half = matrix_power_on_support(rho.matrix, (1 - 1j * t) / 2)
    sig_inv_half = matrix_power_on_support(sigma_b, (-1 + 1j * t) / 2)
    ops = [rho_half @ dag(k) @ sig_inv_half for k in ch.kraus_ops]
    w_a, v_a = np.linalg.eigh(herm_part(rho.matrix))
    w_b, v_b = np.linalg.eigh(herm_part(sigma_b))
    support = v_a[:, w_a > RANK_CUT * w_a[-1]]
    kernel = v_b[:, w_b <= RANK_CUT * w_b[-1]]
    r = support.shape[1]
    for m in range(kernel.shape[1]):
        for j in range(r):
            ops.append(np.outer(support[:, j], kernel[:, m].conj()) / np.sqrt(r))
    return ops


# -- Knill-Laflamme -----------------------------------------------------------


def single_qubit_errors(n_qubits):
    """Identity plus every single-qubit Pauli on n qubits."""
    ops = [np.eye(2**n_qubits, dtype=complex)]
    for site in range(n_qubits):
        for p in (PAULI_X, PAULI_Y, PAULI_Z):
            factors = [np.eye(2, dtype=complex)] * n_qubits
            factors[site] = p
            full = factors[0]
            for f in factors[1:]:
                full = np.kron(full, f)
            ops.append(full)
    return ops


def knill_laflamme_violation(zero, one, errors):
    """max deviation from <i_L|E^dag F|j_L> = c_EF delta_ij."""
    worst = 0.0
    for e in errors:
        for f in errors:
            m = dag(e) @ f
            c00 = np.vdot(zero, m @ zero)
            c11 = np.vdot(one, m @ one)
            c01 = np.vdot(zero, m @ one)
            c10 = np.vdot(one, m @ zero)
            worst = max(worst, abs(c00 - c11), abs(c01), abs(c10))
    return worst


# -- literal dense SW construction --------------------------------------------


def sw_decoder_literal(rho, ch):
    """Dense, step-by-step transcription of the SW decoder construction.

    Uses full SVDs of the overlap matrix and of both purification
    coefficient matrices; suitable only for small dimensions. Returns the
    decoder Kraus operators and the dense (M, U, W).
    """
    pur = purify(rho)
    iso = stinespring_dilation(ch)
    d, d_a, d_b, d_e = pur.rank, ch.dim_in, ch.dim_out, iso.dim_env
    n = d * d_e

    va = iso.v @ pur.basis_a
    psi3 = (va * np.sqrt(pur.schmidt_coeffs)).T.reshape(d, d_b, d_e)

    sigma_re = np.einsum("kbe,lbf->kelf", psi3, psi3.conj()).reshape(n, n)
    sigma_e = np.einsum("kbe,kbf->ef", psi3, psi3.conj())
    sigma_r = np.diag(pur.schmidt_coeffs).astype(complex)

    w_e, v_e = np.linalg.eigh(sigma_e)
    order = np.argsort(w_e)[::-1]
    mu, e_mat = w_e[order], v_e[:, order]

    g = np.kron(np.eye(d), e_mat)
    omega_mat = g @ g.T

    sqrt_sigma = psd_sqrt(sigma_re)
    sqrt_hat = np.kron(psd_sqrt(sigma_r), psd_sqrt(sigma_e))
    t_comp = sqrt_hat @ sqrt_sigma
    m_mat = g @ (dag(g) @ t_comp @ g).T @ dag(g)

    us, _, vh = np.linalg.svd(m_mat)
    u_mat = dag(us @ vh)

    p_coeff = sqrt_sigma @ omega_mat
    x_coeff = psi3.transpose(0, 2, 1).reshape(n, d_b)
    emb = np.zeros((n, d_b), dtype=complex)
    emb[:d_b, :] = np.eye(d_b)
    q_coeff = x_coeff @ emb.T

    up, _, vhp = np.linalg.svd(p_coeff)
    uq, _, vhq = np.linalg.svd(q_coeff)
    w_mat = (dag(vhq) @ dag(uq) @ up @ vhp).T

    kraus = []
    for l in range(d_e):
        s_l = np.kron(pur.basis_a, e_mat[:, l].conj()[None, :])
        k_l = s_l @ u_mat @ w_mat
        kraus.append(k_l @ emb)
    return kraus, m_mat, u_mat, w_mat


# -- SDP Newton step with two complex Schur solves -----------------------------


def solve_sdp_two_solves(prob, tol=1e-7, max_iter=100):
    """The interior-point loop of ``optdec.solve_sdp`` with the predictor and
    the corrector direction each solved from its own right-hand side by a
    complex ``np.linalg.solve`` on the Schur matrix."""
    g = herm_part(prob.objective)
    d_b, d_a = prob.dim_in, prob.dim_out
    dims = (d_b, d_a)
    n = prob.dim
    eye_b, eye_a = np.eye(d_b), np.eye(d_a)

    def tr_out(m):
        return partial_trace(m, dims, keep=0)

    x = np.eye(n, dtype=np.complex128) / d_a
    y = (float(np.linalg.norm(g, 2)) + 1.0) * eye_b.astype(np.complex128)
    z = herm_part(kron(y, eye_a) - g)
    g_scale = 1.0 + float(np.linalg.norm(g))
    feas_tol = 0.1 * tol

    for it in range(1, max_iter + 1):
        r_p = eye_b - tr_out(x)
        r_d = herm_part(kron(y, eye_a) - g - z)
        mu = float(np.vdot(x, z).real) / n
        primal = float(np.trace(g @ x).real)
        dual = float(np.trace(y).real)
        gap = dual - primal
        if (
            np.linalg.norm(r_p) <= feas_tol
            and np.linalg.norm(r_d) <= feas_tol * g_scale
            and abs(gap) <= tol * (1 + abs(primal))
        ):
            return SdpSolution(x=x, y=y, primal=primal, dual=dual, gap=gap, iterations=it)
        w = _nt_scaling(x, z)
        lc = _schur_matrix(w, dims)

        def direction(r_c):
            rhs = tr_out(r_c + w @ r_d @ w) - r_p
            dy = herm_part(np.linalg.solve(lc, rhs.reshape(-1)).reshape(d_b, d_b))
            dz = herm_part(kron(dy, eye_a) - r_d)
            dx = herm_part(r_c - w @ dz @ w)
            return dx, dy, dz

        dx_a, _, dz_a = direction(-x)
        ap = _psd_step(x, dx_a)
        ad = _psd_step(z, dz_a)
        mu_aff = float(np.vdot(x + ap * dx_a, z + ad * dz_a).real) / n
        sigma = min(1.0, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))
        dx, dy, dz = direction(herm_part(sigma * mu * np.linalg.inv(z)) - x)
        ap = _psd_step(x, dx)
        ad = _psd_step(z, dz)
        x = herm_part(x + ap * dx)
        y = herm_part(y + ad * dy)
        z = herm_part(z + ad * dz)
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise NumericalBreakdown(f"non-finite iterate at iteration {it}")
    raise MaxIterations(f"no convergence within {max_iter} iterations")
