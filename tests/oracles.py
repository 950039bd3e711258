"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial roots, partial traces from explicit
index loops, minimizations from parameter grids, integrals from dense
trapezoids, the twirled Choi matrix from one rotated decoder per quadrature
node or from a dense Choi matrix and its full eigendecomposition, the SW
decoder from a literal dense transcription of its construction and from
the factored construction with explicit alignment frames, the SDP
Newton step from two complex Schur solves, the SDP loop one problem at a
time with scalar step lengths, its NT scaling from eigendecompositions and
its step lengths from a fresh Cholesky factorization per call, decoder fidelities and the SDP
objective from the canonical purification and sigma_RB, the rotated Petz
Kraus list from one matrix power per factor, the matrix power on the
support from its own PSD check and its own inline rank cut, and the
order-2 minimized Petz mutual information from the literal Y and all of its
eigenvalues, the rotated fidelity from the whole n x n spectral sum with no
grouping of equal log-ratios, sigma_RB and the Choi matrix from one
rank-one term per Kraus operator, the beta0 quadrature from bisecting one
panel at a time, depth first, tensor powers from iterated np.kron, and
the stacked interior-point loop through the numpy calls it made before they
were trimmed (norms and traces by their wrappers), the sector sum with one
stacked run per sector shape instead of one padded run, the Schur solve
as the real system it was before it ran in the objective's arithmetic, the
qubit-permutation sectors from matrices permuted by reshaping and tested
one permutation at a time,
and Kraus lists checked, built and summed one operator at a time (a channel
on one factor of a product through Kronecker-padded operators).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.optimize import minimize

from petzlab.decoders import (
    _GL_NODES,
    _INITIAL_PANELS,
    _MAX_DEPTH,
    _U_MAX,
    _leggauss,
    _spectra,
    build_rotated_petz,
)
from petzlab.errors import (
    DimensionMismatch,
    MaxIterations,
    NotPsd,
    NumericalBreakdown,
    ToleranceNotMet,
)
from petzlab.matcore import (
    HERM_TOL,
    RANK_CUT,
    as_cmatrix,
    dag,
    herm_eig,
    herm_part,
    kron,
    matrix_power_on_support,
    partial_trace,
    psd_sqrt,
    support_mask,
)
from petzlab.optdec import (
    MAX_ITER,
    PROPOSAL_TOL,
    STEP_FRACTION,
    SdpProblem,
    SdpSolution,
    _schur_matrix,
    _schur_solve,
    _solve_one_wide,
    _solve_stack,
    _step_lengths,
    _tr_out,
)
from petzlab.quantum import (
    PurifiedSource,
    StinespringIsometry,
    apply_channel,
    channel_from_choi,
    channel_on_purification,
    choi_of_channel,
    dilate,
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


def min_petz_mi_order2_no_cut(sigma_rb, w_r):
    """2 log2 tr[sqrt(Y)] with Y = tr_R[(W^(-1/2) tensor 1) sigma^2
    (W^(-1/2) tensor 1)] formed literally, and tr[sqrt(Y)] from all of Y's
    eigenvalues with no support cut (negative roundoff clipped to 0)."""
    d_r, d_b = sigma_rb.dims
    w_half = kron(matrix_power_on_support_inline(w_r, -0.5), np.eye(d_b))
    m = sigma_rb.matrix
    y = partial_trace_loops(w_half @ m @ m @ w_half, d_r, d_b, keep=1)
    lam = np.linalg.eigvalsh(herm_part(y))
    return float(2 * np.log2(np.sum(np.sqrt(np.clip(lam, 0.0, None)))))


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


def beta0_panels_depth_first(g_batch, tol):
    """The adaptive beta0 quadrature of decoders._beta0_panels with the
    panels bisected one at a time, depth first: each step evaluates the two
    halves of one panel in one g_batch call and accepts them or pushes them
    back, left half on top. Returns (value, nodes, weights)."""
    x, w = _leggauss(_GL_NODES)

    def panels(bounds):
        parts = []
        for a, b in bounds:
            mid, half = (a + b) / 2, (b - a) / 2
            parts.append((2.0 / math.pi * np.arctanh(mid + half * x), 0.5 * half * w))
        vals = np.asarray(g_batch(np.concatenate([t for t, _ in parts])), dtype=np.float64)
        return [
            (float(np.dot(weights, vals[i * _GL_NODES : (i + 1) * _GL_NODES])), t, weights)
            for i, (t, weights) in enumerate(parts)
        ]

    total_width = 2 * _U_MAX
    edges = np.linspace(-_U_MAX, _U_MAX, _INITIAL_PANELS + 1)
    bounds = list(zip(edges[:-1], edges[1:]))
    stack = [(a, b, 0, est) for (a, b), (est, _, _) in zip(bounds, panels(bounds))][::-1]
    value = 0.0
    nodes, weights = [], []
    while stack:
        a, b, depth, est = stack.pop()
        mid = (a + b) / 2
        (est_l, t_l, w_l), (est_r, t_r, w_r) = panels([(a, mid), (mid, b)])
        if abs(est - (est_l + est_r)) <= tol * (b - a) / total_width:
            value += est_l + est_r
            nodes.extend([t_l, t_r])
            weights.extend([w_l, w_r])
        else:
            if depth >= _MAX_DEPTH:
                raise ToleranceNotMet(
                    f"beta0 quadrature did not reach tol {tol:g} at depth {depth}"
                )
            stack.append((mid, b, depth + 1, est_r))
            stack.append((a, mid, depth + 1, est_l))
    return value, np.concatenate(nodes), np.concatenate(weights)


def tensor_power_kron(kraus_ops, n):
    """The Kraus operators of the n-fold tensor power, as iterated np.kron
    products with the first factor's index slowest."""
    ops = list(kraus_ops)
    for _ in range(n - 1):
        ops = [np.kron(a, b) for a in ops for b in kraus_ops]
    return ops


def rotated_fidelity_full(kernel, t):
    """F(t) = Re z(t)^dagger C z(t) of a RotatedFidelity over all n support
    pairs, z_k(t) = exp(i theta_k t/2), with no grouping of equal theta."""
    z = np.exp(0.5j * np.multiply.outer(kernel._theta, t))
    f = np.sum(z.conj() * np.tensordot(kernel._coeff, z, axes=1), axis=0).real
    return float(f) if np.ndim(t) == 0 else f


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


def twirled_decoder_dense(rho, ch, phases, completion_weight):
    """An averaged rotated-Petz decoder as a Kraus channel B -> A from its full
    (d_B d_A)^2 Choi matrix: the spectral core C o P for the n x n averaged
    phase matrix P and the kernel completion (weight ``completion_weight``)
    in the full product basis, renormalized through the d_B x d_B partial
    trace, then split into Kraus operators by the eigendecomposition of
    :func:`channel_from_choi`. The beta0 average passes
    P_jk = kappa((theta_j - theta_k)/2) and weight 1; quadrature nodes t_i
    with weights w_i pass P = Z diag(w) Z^dagger, Z_ji = exp(-i t_i theta_j / 2),
    and sum_i w_i."""
    (lam, u_a), (mu, u_b, kernel) = _spectra(rho, ch)
    proj = dag(u_b) @ np.stack(ch.kraus_ops) @ u_a
    vecs = (proj.conj() * np.sqrt(lam) / np.sqrt(mu)[:, None]).reshape(len(ch.kraus_ops), -1)
    petz = vecs.T @ vecs.conj()
    basis = np.kron(u_b.conj(), u_a)
    choi = basis @ (petz * phases) @ dag(basis)
    if kernel.shape[1]:
        completion = np.kron(kernel.conj() @ kernel.T, u_a @ dag(u_a)) / u_a.shape[1]
        choi += completion_weight * completion
    d_in, d_out = ch.dim_out, ch.dim_in
    tr_out = partial_trace(choi, (d_in, d_out), keep=0)
    fix = kron(matrix_power_on_support(tr_out, -0.5), np.eye(d_out))
    return channel_from_choi(fix @ choi @ dag(fix), (d_in, d_out))


# -- sums of rank-one terms, one Kraus operator at a time ---------------------


def channel_on_purification_loop(pur, ch):
    """Matrix of sigma_RB = sum_k |b_k><b_k| over the branches
    |b_k> = (1 tensor K_k)|rho>, one outer product per Kraus operator."""
    psi = pur.vector.reshape(pur.rank, pur.dim_a)
    out = np.zeros((pur.rank * ch.dim_out,) * 2, dtype=complex)
    for k in ch.kraus_ops:
        branch = (psi @ k.T).reshape(-1)
        out += np.outer(branch, branch.conj())
    return out


def choi_of_channel_loop(ch):
    """Choi matrix (input factor first) as sum_k |K_k>><<K_k|, one outer
    product per Kraus operator."""
    out = np.zeros((ch.dim_in * ch.dim_out,) * 2, dtype=complex)
    for k in ch.kraus_ops:
        w = k.T.reshape(-1)
        out += np.outer(w, w.conj())
    return out


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


# -- SW decoder through explicit alignment frames --------------------------------
# The factored construction build_sw ran before it took the polar factor of
# one overlap matrix: four factorizations, the W, M and U frames, and their
# completions.


def _apply_block_kron(a_diag: np.ndarray, b_mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(diag(a) tensor B) @ x without forming the Kronecker product."""
    d, cols = a_diag.size, x.shape[1]
    xt = x.reshape(d, b_mat.shape[1], cols)
    out = np.einsum("ef,kfc->kec", b_mat, xt, optimize=True)
    out *= a_diag[:, None, None]
    return out.reshape(d * b_mat.shape[0], cols)


class SwConstruction:
    """Intermediate objects of the SW decoder construction for a purified
    source and a Stinespring isometry of the channel.

    Four factorizations build it: the eigendecomposition of sigma_E, one
    full SVD X = U_X diag(s) V_X^dagger of the coefficient matrix of |sigma>
    for the (RE)|(B) cut, one complete QR of the right factor of the overlap
    matrix M, and the SVD of M's r x r core. Every completion comes from
    them: Omega conj(U_X) is unitary, so its first r columns are M's left
    factor and the rest complete U on the left; the complete QR completes U
    on the right; and W = Omega conj(U_X) blockdiag(V_X^T, 1) is explicit.
    The decoder only needs the columns of U W over the physical input block
    |0>_{R'A'} tensor B; the dense M, U and W are built on request.
    """

    def __init__(self, pur: PurifiedSource, iso: StinespringIsometry):
        d, d_b, d_e = pur.rank, iso.dim_out, iso.dim_env
        self.d_code, self.d_a, self.d_b, self.d_e = d, iso.dim_in, d_b, d_e
        self.dim = d * d_e  # dimension of R'E'
        self.basis_a = pur.basis_a

        # |sigma>_RBE = (1_R tensor V)|rho>, stored as (R, B, E).
        va = iso.v @ pur.basis_a  # (d_B d_E) x d
        psi3 = (va * np.sqrt(pur.schmidt_coeffs)).T.reshape(d, d_b, d_e)
        sigma_e = np.einsum("kbe,kbf->ef", psi3, psi3.conj(), optimize=True)
        eig_e = herm_eig(sigma_e)
        e = self.env_eigenvectors = eig_e.eigenvectors
        self.omega_env = e @ e.T  # Omega = 1_R' tensor (E E^T)

        # Coefficient matrix of |sigma> for the (RE)|(B) cut and its full SVD;
        # sigma_RE = X X^dagger. The support is cut on s, the spectrum of
        # sigma_RE^(1/2), since the alignment acts on amplitudes: cutting s^2
        # drops bitflip3's directions with s ~ 1e-7 * s_max at p = 1e-14, and the
        # alignment check then rejects the decoder.
        self.x_coeff = psi3.transpose(0, 2, 1).reshape(self.dim, d_b)
        u_x, s_x, vh_x = np.linalg.svd(self.x_coeff)
        rank = int(np.count_nonzero(support_mask(s_x)))
        self.u_r = u_x[:, :rank]  # eigenvectors of sigma_RE on its support
        self.s_r = s_x[:rank]  # singular values: sqrt of sigma_RE eigenvalues
        self._omega_ux = self._apply_omega(u_x.conj())  # unitary
        self.w_input_block = self._omega_ux[:, :d_b] @ vh_x.conj()  # W (|0> tensor 1_B)

        # T = sigma_hat^(1/2) sigma_RE^(1/2) = L diag(s_r) U_r^dagger and
        # M = Omega T^T Omega^* = m_left diag(s_r) m_right, where
        # m_left = Omega u_r^* has orthonormal columns.
        sqrt_mu = np.sqrt(np.clip(eig_e.eigenvalues, 0.0, None))
        ell = _apply_block_kron(np.sqrt(pur.schmidt_coeffs), (e * sqrt_mu) @ dag(e), self.u_r)
        self._m_left = self._omega_ux[:, :rank]
        self._m_right = self._apply_omega(ell, conjugate=True).T

        # Thin SVD of M through the complete QR of its right factor, and the
        # kernels that complete U = u_right^dagger u_left^dagger + v_ker u_ker^dagger.
        q2, r2 = np.linalg.qr(dag(self._m_right), mode="complete")
        core_u, self.m_singular_values, core_vh = np.linalg.svd(
            self.s_r[:, None] * dag(r2[:rank])
        )
        self._u_left = self._m_left @ core_u
        self._u_right = core_vh @ dag(q2[:, :rank])
        self._u_ker = self._omega_ux[:, rank:]
        self._v_ker = q2[:, rank:]

    def _apply_omega(self, x: np.ndarray, conjugate: bool = False) -> np.ndarray:
        om = self.omega_env.conj() if conjugate else self.omega_env
        return _apply_block_kron(np.ones(self.d_code), om, x)

    def _apply_u(self, x: np.ndarray) -> np.ndarray:
        """U x for the alignment unitary U."""
        thin = dag(self._u_right) @ (dag(self._u_left) @ x)
        return thin + self._v_ker @ (dag(self._u_ker) @ x)

    # -- dense matrices ------------------------------------------------------------

    @functools.cached_property
    def m_matrix(self) -> np.ndarray:
        """Overlap matrix M on R'E' (dense), in the padded frame d_E = d_A d_B
        of :func:`~petzlab.quantum.stinespring_dilation`.

        M vanishes outside supp sigma_E, so the extra environment slots of
        that frame carry zero rows and columns.
        """
        d, d_e, d_pad = self.d_code, self.d_e, self.d_a * self.d_b
        m = np.zeros((d, d_pad, d, d_pad), dtype=np.complex128)
        m[:, :d_e, :, :d_e] = ((self._m_left * self.s_r) @ self._m_right).reshape(
            d, d_e, d, d_e
        )
        return m.reshape(d * d_pad, d * d_pad)

    @functools.cached_property
    def u_matrix(self) -> np.ndarray:
        """Alignment unitary U with tr[M U] = ||M||_1 (dense)."""
        return self._apply_u(np.eye(self.dim, dtype=np.complex128))

    @functools.cached_property
    def w_matrix(self) -> np.ndarray:
        """Purification-alignment unitary W (dense)."""
        return np.hstack([self.w_input_block, self._omega_ux[:, self.d_b :]])

    # -- invariants ------------------------------------------------------------

    def psi_sigma_matrix(self) -> np.ndarray:
        """Coefficient matrix of |Psi^sigma> = sigma_RE^(1/2)|Omega> (dense)."""
        return (self.u_r * self.s_r) @ self._m_left.T  # m_left = Omega u_r^*

    def alignment_residual(self) -> float:
        """Frobenius residual of |Psi^sigma> = W (|sigma> tensor |0>)."""
        aligned = self.x_coeff @ self.w_input_block.T
        return float(np.linalg.norm(self.psi_sigma_matrix() - aligned))

    def trace_mu_guard(self) -> tuple[float, float]:
        """tr[M U] as (real, imag); equals ||M||_1 up to roundoff."""
        val = complex(np.trace(self._m_right @ self._apply_u(self._m_left * self.s_r)))
        return val.real, val.imag

    def _to_a(self, cols: np.ndarray) -> np.ndarray:
        """Kraus operators (<sigma_E eigenvector l| on E', Schmidt basis of A on
        R') applied to columns on R'E': one operator per environment slot."""
        t = cols.reshape(self.d_code, self.d_e, cols.shape[1])
        z = np.einsum("el,kec->klc", self.env_eigenvectors.conj(), t, optimize=True)
        return np.einsum("ak,klc->lac", self.basis_a, z, optimize=True)

    def decoder_kraus(self) -> np.ndarray:
        """Kraus operators of the decoder, K_l (|0>_{R'A'} tensor 1_B)."""
        return self._to_a(self._apply_u(self.w_input_block))

    def kraus_full(self) -> np.ndarray:
        """Kraus operators K_l of the full R'E' -> A stage (dense)."""
        return self._to_a(self.u_matrix @ self.w_matrix)


def sw_construction(rho, ch):
    """:class:`SwConstruction` on the environment that build_sw dilates:
    one slot per Kraus operator, at least ceil(d_B / rank(rho))."""
    pur = purify(rho)
    return SwConstruction(pur, dilate(ch, -(-ch.dim_out // pur.rank)))


# -- SDP Newton step with two complex Schur solves -----------------------------

# The NT scaling point from two eigendecompositions and the step lengths from
# a Cholesky factorization and two solves per call, as optdec computed them
# before it took all three from one Cholesky factorization of X and Z.


def _psd_step(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Steps alpha <= 1, one per matrix of the stack s (..., n, n), that go
    STEP_FRACTION of the way to where s + alpha*ds stops being positive
    definite."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("iterate lost positive definiteness")
    inner = dag(np.linalg.solve(chol, dag(np.linalg.solve(chol, ds))))
    lam_min = np.linalg.eigvalsh(herm_part(inner))[..., 0]
    # 1 where lam_min >= -STEP_FRACTION, else -STEP_FRACTION / lam_min
    return STEP_FRACTION / np.maximum(-lam_min, STEP_FRACTION)


def _psd_half_powers(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eig = herm_eig(s)
    w = np.clip(eig.eigenvalues.real, 1e-300, None)[..., None, :]
    v = eig.eigenvectors
    return (v * np.sqrt(w)) @ dag(v), (v / np.sqrt(w)) @ dag(v)


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling points W with W Z W = X, one per matrix of the stack."""
    z_half, z_inv_half = _psd_half_powers(z)
    inner_half, _ = _psd_half_powers(z_half @ x @ z_half)
    return herm_part(z_inv_half @ inner_half @ z_inv_half)


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


def solve_sdp_unstacked(prob, tol=1e-7):
    """The interior-point loop of ``optdec.solve_sdp`` as it was before the
    stacked solve: one problem, scalar mu, sigma and step lengths. The loop
    body is kept verbatim; it runs on the (stack-aware) optdec helpers."""
    g = herm_part(prob.objective)
    d_b, d_a = prob.dim_in, prob.dim_out
    dims = (d_b, d_a)
    n = prob.dim
    eye_b, eye_a = np.eye(d_b), np.eye(d_a)

    x = np.eye(n, dtype=np.complex128) / d_a
    y = (float(np.linalg.norm(g, 2)) + 1.0) * eye_b.astype(np.complex128)
    z = herm_part(kron(y, eye_a) - g)

    g_scale = 1.0 + float(np.linalg.norm(g))
    feas_tol = 0.1 * tol

    def converged(sol, r_p, r_d):
        return (
            np.linalg.norm(r_p) <= feas_tol
            and np.linalg.norm(r_d) <= feas_tol * g_scale
            and abs(sol.gap) <= tol * (1 + abs(sol.primal))
        )

    for it in range(1, MAX_ITER + 1):
        r_p = eye_b - _tr_out(x, dims)
        r_d = herm_part(kron(y, eye_a) - g - z)
        mu = float(np.vdot(x, z).real) / n
        primal = float(np.trace(g @ x).real)
        dual = float(np.trace(y).real)
        gap = dual - primal
        best = SdpSolution(x=x, y=y, primal=primal, dual=dual, gap=gap, iterations=it)
        if converged(best, r_p, r_d):
            return best

        try:
            w = _nt_scaling(x, z)
            z_inv = herm_part(np.linalg.inv(z))
            rhs_aff = _tr_out(w @ r_d @ w - x, dims) - r_p
            dy_aff, dy_cen = _schur_solve(
                _schur_matrix(w, dims), np.stack([rhs_aff, _tr_out(z_inv, dims)])
            )

            def direction(r_c, dy):
                dz = herm_part(kron(dy, eye_a) - r_d)
                dx = herm_part(r_c - w @ dz @ w)
                return dx, dy, dz

            dx_a, _, dz_a = direction(-x, dy_aff)
            ap = _psd_step(x, dx_a)
            ad = _psd_step(z, dz_a)
            mu_aff = float(np.vdot(x + ap * dx_a, z + ad * dz_a).real) / n
            sigma = min(1.0, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

            dx, dy, dz = direction(sigma * mu * z_inv - x, dy_aff + sigma * mu * dy_cen)
            ap = _psd_step(x, dx)
            ad = _psd_step(z, dz)
            x = herm_part(x + ap * dx)
            y = herm_part(y + ad * dy)
            z = herm_part(z + ad * dz)
        except (np.linalg.LinAlgError, NumericalBreakdown):
            raise NumericalBreakdown(f"solver broke down at iteration {it}, gap {gap:.3e}")
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise NumericalBreakdown(f"non-finite iterate at iteration {it}")

    raise MaxIterations(f"no convergence within {MAX_ITER} iterations")


def solve_sectors_per_shape(problems, tol):
    """``optdec._solve_sectors`` as it was before the wider sectors were
    padded to one width: one stacked run per sector shape (dim_in, dim_out),
    the 1-wide sectors in closed form. The body is kept verbatim."""
    shapes: dict[tuple[int, int], list[SdpProblem]] = {}
    for prob in problems:
        shapes.setdefault((prob.dim_in, prob.dim_out), []).append(prob)
    terms = []
    for (d_in, _), stack in shapes.items():
        if d_in == 1:
            terms += map(_solve_one_wide, stack)
        else:
            terms += [(s.primal, s.gap) for s in _solve_stack(stack, tol / len(problems))]
    return sum(p for p, _ in terms), sum(gap for _, gap in terms)


# -- the interior-point loop before its numpy calls were trimmed ---------------
# optdec._interior_point as it was when it took norms from np.linalg.norm,
# traces from np.trace, Y tensor 1 from a fresh np.eye per call, the start
# from the SVD-based spectral norm, and symmetrized W and Z^-1 on every
# stack; the loop body is kept verbatim, with the helpers it used then.


def _tensor_eye_broadcast(m: np.ndarray, d_a: int) -> np.ndarray:
    lead, d = m.shape[:-2], m.shape[-1]
    out = m[..., :, None, :, None] * np.eye(d_a)[:, None, :]
    return out.reshape(lead + (d * d_a, d * d_a))


def _tr_out_trace(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_b, d_a = dims
    return np.trace(m.reshape(m.shape[:-2] + (d_b, d_a, d_b, d_a)), axis1=-3, axis2=-1)


def _nt_scaling_chol(lx: np.ndarray, lz: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(dag(lz) @ lx)
    a = (lx @ dag(vh)) / np.sqrt(s)[..., None, :]
    return herm_part(a @ dag(a))


def interior_point_untrimmed(g: np.ndarray, dims: tuple[int, int], tol: float) -> list:
    """One solution per member of the stack g, with the iterates of
    ``optdec._interior_point`` computed through the untrimmed numpy calls."""
    d_b, d_a = dims
    n = d_b * d_a
    eye_b = np.eye(d_b)
    x = np.repeat(np.eye(n, dtype=g.dtype)[None] / d_a, len(g), axis=0)
    y = (np.linalg.norm(g, 2, axis=(-2, -1)) + 1.0)[:, None, None] * eye_b.astype(g.dtype)
    z = _tensor_eye_broadcast(y, d_a) - g

    g_scale = 1.0 + np.linalg.norm(g, axis=(-2, -1))
    feas_tol = 0.1 * tol
    members = list(range(len(g)))  # index in g of each stack row
    solutions: list[SdpSolution] = [None] * len(g)

    # x, y, z, the residual r_d and the steps dy and dz are exactly Hermitian:
    # each is a real combination of exactly Hermitian matrices, so only the
    # products with W need herm_part.
    for it in range(1, MAX_ITER + 1):
        r_p = eye_b - _tr_out_trace(x, dims)
        r_d = _tensor_eye_broadcast(y, d_a) - g - z
        mu = np.einsum("kij,kij->k", x.conj(), z).real / n
        primal = np.einsum("kij,kji->k", g, x).real
        dual = np.trace(y, axis1=-2, axis2=-1).real
        gap = dual - primal
        done = (
            (np.linalg.norm(r_p, axis=(-2, -1)) <= feas_tol)
            & (np.linalg.norm(r_d, axis=(-2, -1)) <= feas_tol * g_scale)
            & (np.abs(gap) <= tol * (1 + np.abs(primal)))
        )
        if done.any():
            for row in np.flatnonzero(done):
                solutions[members[row]] = SdpSolution(
                    x=x[row],
                    y=y[row],
                    primal=float(primal[row]),
                    dual=float(dual[row]),
                    gap=float(gap[row]),
                    iterations=it,
                )
            if done.all():
                return solutions
            stay = ~done
            members = [m for m, s in zip(members, stay) if s]
            g, x, y, z, r_p, r_d, mu, g_scale = (
                a[stay] for a in (g, x, y, z, r_p, r_d, mu, g_scale)
            )

        try:
            k = len(x)
            chol = np.linalg.cholesky(np.concatenate([x, z]))
            chol_inv = np.linalg.inv(chol)
            w = _nt_scaling_chol(chol[:k], chol[k:])
            z_inv = herm_part(dag(chol_inv[k:]) @ chol_inv[k:])
            rhs_aff = _tr_out_trace(w @ r_d @ w - x, dims) - r_p
            dy = _schur_solve(
                _schur_matrix(w, dims), np.stack([rhs_aff, _tr_out_trace(z_inv, dims)], axis=-3)
            )
            dy_aff, dy_cen = dy[:, 0], dy[:, 1]

            def direction(r_c, dy):
                dz = _tensor_eye_broadcast(dy, d_a) - r_d
                dx = herm_part(r_c - w @ dz @ w)
                return dx, dy, dz

            # the primal and the dual step lengths of every member in one call
            def steps(dx, dz):
                alpha = _step_lengths(chol_inv, np.concatenate([dx, dz]))[:, None, None]
                return alpha[:k], alpha[k:]

            dx_a, _, dz_a = direction(-x, dy_aff)
            ap, ad = steps(dx_a, dz_a)
            mu_aff = np.einsum("kij,kij->k", (x + ap * dx_a).conj(), z + ad * dz_a).real / n
            sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0)[:, None, None]
            smu = sigma * mu[:, None, None]

            dx, dy, dz = direction(smu * z_inv - x, dy_aff + smu * dy_cen)
            ap, ad = steps(dx, dz)
            x = x + ap * dx
            y = y + ad * dy
            z = z + ad * dz
        except (np.linalg.LinAlgError, NumericalBreakdown):
            raise NumericalBreakdown(
                f"solver broke down at iteration {it}, gap {np.abs(gap).max():.3e}"
            )
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise NumericalBreakdown(f"non-finite iterate at iteration {it}")

    raise MaxIterations(f"no convergence within {MAX_ITER} iterations")


# -- the Schur solve in real coordinates ------------------------------------------


def schur_solve_real_form(lc: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lc vec(Y_k) = vec(H_k) for a stack of right-hand sides in one
    real factorization.

    ``lc`` is the matrix of a Hermitian-preserving map on d x d matrices
    (:func:`_schur_matrix`) and ``rhs`` is k x d x d; only the Hermitian part
    of each H_k is used. R(Y) = Re Y + Im Y maps Hermitian matrices
    isometrically onto real ones, and R(L(Y)) = L_R R(Y) with
    L_R = Re lc + Im(lc with transposed columns), which has the conditioning
    of lc. The solutions come back through Y = ((1+i)R + (1-i)R^T)/2, so
    they are exactly Hermitian. A real ``lc`` (a real objective) maps real
    symmetric matrices to real symmetric ones and is solved as it is; the
    solutions are returned as their symmetric parts (Y + Y^T)/2. A stack of
    maps lc (..., n, n) takes a stack of right-hand sides (..., k, d, d).
    """
    lead, (k, d, _) = rhs.shape[:-3], rhs.shape[-3:]
    n = d * d
    complex_map = np.iscomplexobj(lc)
    if complex_map:
        lc_t = lc.reshape(lead + (n, d, d)).swapaxes(-1, -2).reshape(lead + (n, n))
        herm = herm_part(rhs)
        lc, rhs = lc.real + lc_t.imag, herm.real + herm.imag
    r = np.linalg.solve(lc, rhs.reshape(lead + (k, n)).swapaxes(-1, -2))
    r = r.swapaxes(-1, -2).reshape(lead + (k, d, d))
    rt = r.swapaxes(-1, -2)
    sym = (r + rt) / 2
    return sym + 1j * ((r - rt) / 2) if complex_map else sym


# -- qubit-permutation sectors from matrices permuted by reshaping ------------------


def permute_rows(m: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """P m for the qubit permutation P that moves qubit perm[j] to position j,
    applied to the 2^n-dimensional row index of m by transposing axes."""
    n = len(perm)
    return m.reshape((2,) * n + (-1,)).transpose(*perm, n).reshape(m.shape)


def is_symmetric(m: np.ndarray, perm: tuple[int, ...]) -> bool:
    """Whether P m P^dagger = m for the (real) qubit permutation P, to PROPOSAL_TOL."""
    pmp = permute_rows(permute_rows(m, perm).T, perm).T
    return float(np.linalg.norm(pmp - m)) <= PROPOSAL_TOL


def stabilizers_by_reshape(rho: np.ndarray, pi_b: np.ndarray, n: int) -> list:
    """(j, perm) for every qubit permutation perm other than the identity,
    j its index in itertools.permutations(range(n)), that fixes rho and pi_b
    by :func:`is_symmetric`: no probe prefilter, one permutation at a time."""
    perms = list(itertools.permutations(range(n)))
    return [
        (j, perms[j])
        for j in range(1, len(perms))
        if is_symmetric(rho, perms[j]) and is_symmetric(pi_b, perms[j])
    ]


def sector_bases_by_reshape(rho_a, v_in: np.ndarray) -> list[np.ndarray]:
    """``optdec._sector_bases`` as it was when it permuted v_in by reshaping
    (:func:`permute_rows`) and tested each permutation by :func:`is_symmetric`;
    the body is kept verbatim but for :func:`stabilizers_by_reshape`, which
    tests every permutation, not only those a probe prefilter passed. The
    prefilter kept every symmetry, so the accepted set is the same."""
    d, r_b = rho_a.dim, v_in.shape[1]
    n = d.bit_length() - 1
    if v_in.shape[0] != d or d != 2**n:
        return [np.eye(r_b)]
    pi_b = v_in @ dag(v_in)
    qs = [
        (j, dag(v_in) @ permute_rows(v_in, perm))
        for j, perm in stabilizers_by_reshape(rho_a.matrix, pi_b, n)
    ]
    if not qs:
        return [np.eye(r_b)]
    a = sum(q / j for j, q in qs)
    eig = herm_eig(a + dag(a))
    w = eig.eigenvalues
    cuts = np.flatnonzero(w[:-1] - w[1:] > PROPOSAL_TOL * np.abs(w).max()) + 1
    bases = np.split(eig.eigenvectors, cuts, axis=1)
    reps: list[np.ndarray] = []
    for i, v in enumerate(bases):
        for rep in reps:
            if rep.shape != v.shape:
                continue
            u, s, vh = np.linalg.svd(dag(v) @ a @ rep)
            if s[0] > PROPOSAL_TOL * np.linalg.norm(a) and s[0] - s[-1] <= PROPOSAL_TOL * s[0]:
                bases[i] = v @ (u @ vh)
                break
        else:
            reps.append(v)
    return bases


# -- Kraus operators checked one at a time ---------------------------------------


def kraus_ops_checked_per_operator(kraus_ops, dim_in, dim_out):
    """KrausChannel's operator check as it ran before it checked the stack
    once: as_cmatrix (2-d, finite) on every operator, then the shapes."""
    if not kraus_ops:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    ops = tuple(as_cmatrix(k) for k in kraus_ops)
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatch(f"Kraus operator is {k.shape}, expected {(dim_out, dim_in)}")
    return ops


def kraus_channel_checked_per_operator(kraus_ops):
    """kraus_channel's checks as they ran before: as_cmatrix on every
    operator, then the KrausChannel check at the first operator's shape."""
    ops = [as_cmatrix(k) for k in kraus_ops]
    if not ops:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d_out, d_in = ops[0].shape
    return kraus_ops_checked_per_operator(ops, d_in, d_out)


# -- Kraus lists built and summed one operator at a time ---------------------------


def apply_channel_kron(ch, x, dims, acting_on):
    """sum_k P_k x P_k^dagger over the Kraus operators padded to the whole
    product, P_k = 1_left tensor K_k tensor 1_right."""
    left = int(np.prod(dims[:acting_on]))
    right = int(np.prod(dims[acting_on + 1 :]))
    d_out = left * ch.dim_out * right
    out = np.zeros((d_out, d_out), dtype=complex)
    eye_l, eye_r = np.eye(left), np.eye(right)
    for k in ch.kraus_ops:
        kk = kron(eye_l, k, eye_r)
        out += kk @ x @ dag(kk)
    return out


def kraus_sum_loop(ch):
    """sum_k K_k^dagger K_k, one operator at a time."""
    out = np.zeros((ch.dim_in, ch.dim_in), dtype=complex)
    for k in ch.kraus_ops:
        out += dag(k) @ k
    return out


def kernel_completion_outer(u_a, kernel):
    """|u_j><k_m| / sqrt(r) over the r columns u_j of u_a and the columns k_m
    of kernel, one np.outer per pair, k_m slowest."""
    r = u_a.shape[1]
    return [np.outer(u, k.conj()) / math.sqrt(r) for k in kernel.T for u in u_a.T]


def choi_kraus_per_eigenvector(c, dims):
    """sqrt(mu) vec^T for each support eigenpair (mu, vec) of a Choi matrix
    (input factor first), vec reshaped to d_in x d_out."""
    d_in, d_out = dims
    lam, vecs, _ = herm_eig(c, tol=1e-8).split()
    return [math.sqrt(mu) * vec.reshape(d_in, d_out).T for mu, vec in zip(lam, vecs.T)]
