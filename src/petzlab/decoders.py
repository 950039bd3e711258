"""Petz, rotated-Petz, twirled-Petz, and Schumacher-Westmoreland decoders.

Decoders are materialized as CPTP Kraus channels from B back to A. Their
entanglement fidelities follow from the Kraus-trace identity
F_e = sum |tr(rho D_l K_k)|^2 and, for the Petz family, from closed-form
expressions in the channeled purification sigma_RB. The Petz-family maps
and the SDP reduction split the spectra of rho and sigma_B = N(rho) once
per call (:func:`_spectra`). The twirled decoder averages the rotated
decoders against the density beta0(t) = (pi/2) / (cosh(pi t) + 1): the
adaptive quadrature evaluates the rotated fidelity spectrally at a whole
panel of nodes per call, on the distinct values of the log-ratio spectrum
theta: values within ``THETA_TIE`` are merged, which moves F(t) by at most
petz * THETA_TIE * |t|, so by <= 8e-12 on the nodes. The twirled decoder's
Kraus operators are the eigenvectors of its (r_B r_A)^2 core, the Petz
Choi matrix in the eigenbases of (sigma_B, rho) multiplied entrywise by the
averaged phases and renormalized to trace preservation on supp sigma_B;
its kernel gets the completion the Petz map uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentFailure,
    DegenerateChannelOutput,
    DimensionMismatch,
    ToleranceNotMet,
)
from .matcore import (
    clamp_unit,
    dag,
    herm_eig,
    matrix_power_on_support,
    partial_trace,
    psd_eig,
    support_mask,
)
from .quantum import (
    CPTP_TOL,
    DensityOperator,
    KrausChannel,
    PurifiedSource,
    StinespringIsometry,
    channel_on_purification,
    choi_of_channel,
    dilate,
    purify,
    validate_cptp,
)

ALIGNMENT_TOL = 1e-8

# Hard truncation of the beta0 integral at |t| <= 8; the tail mass is
# 1 - tanh(4*pi) ~ 2.4e-11.
_T_MAX = 8.0
_U_MAX = math.tanh(math.pi * _T_MAX / 2)
_GL_NODES = 64
_INITIAL_PANELS = 4
_MAX_DEPTH = 52

# Log-ratios theta within this distance of their group's smallest value
# share one exponential in RotatedFidelity.value.
THETA_TIE = 1e-12


@dataclass(frozen=True, eq=False)
class Decoder:
    """A recovery channel B -> A with a provenance tag."""

    channel: KrausChannel
    kind: str  # petz | rotated | twirled | sw | identity | custom
    t: float | None = None


def identity_decoder(dim: int) -> Decoder:
    ch = KrausChannel(
        kraus_ops=(np.eye(dim, dtype=np.complex128),),
        dim_in=dim,
        dim_out=dim,
        label_in="B",
        label_out="A",
    )
    return Decoder(channel=ch, kind="identity")


def _spectra(rho_a: DensityOperator, ch: KrausChannel):
    """Spectra of rho (its stored ``spectrum``) and of sigma_B = N(rho), each
    split once at the support cut (:meth:`~petzlab.matcore.HermEig.split`).

    Returns ((lam, u_a), (mu, u_b, kernel)): the support eigenvalues
    (descending) and eigenvectors of rho, and those of sigma_B together with
    its kernel eigenvectors. Raises :class:`DegenerateChannelOutput` if
    sigma_B is numerically zero.
    """
    if ch.dim_in != rho_a.dim:
        raise DimensionMismatch(f"channel input {ch.dim_in} != source dim {rho_a.dim}")
    sigma_b = np.zeros((ch.dim_out, ch.dim_out), dtype=np.complex128)
    for k in ch.kraus_ops:
        sigma_b += k @ rho_a.matrix @ dag(k)
    eig_b = herm_eig(sigma_b)
    if eig_b.eigenvalues[0] <= 1e-14:
        raise DegenerateChannelOutput("channel output state is numerically zero")
    lam, u_a, _ = rho_a.spectrum.split()
    return (lam, u_a), eig_b.split()


def _kernel_completion(u_a: np.ndarray, kernel: np.ndarray) -> list[np.ndarray]:
    """Kraus operators |u_j><k_m| / sqrt(r) over the r support vectors u_j of
    rho and the kernel vectors k_m of sigma_B: they measure the kernel of
    sigma_B and output the maximally mixed state on supp(rho), which makes a
    map on supp(sigma_B) CPTP everywhere without affecting fidelities."""
    r = u_a.shape[1]
    return [np.outer(u, k.conj()) / math.sqrt(r) for k in kernel.T for u in u_a.T]


def _petz_eigenbasis(rho_a: DensityOperator, ch: KrausChannel):
    """The Petz Kraus operators rho^(1/2) K_l^dagger sigma_B^(-1/2) in the
    eigenbases U_A of rho and U_B of sigma_B, restricted to the supports.

    Returns ((u_a, u_b, kernel), vecs, theta): the support eigenvectors and
    the kernel of sigma_B from :func:`_spectra`; the Choi vectors
    vecs[l, (b, a)] = conj(U_B^dagger K_l U_A)[b, a] sqrt(lam_a / mu_b), so the
    l-th Petz operator is U_A vecs_l^T U_B^dagger for vecs_l reshaped to
    r_B x r_A; and theta_(b, a) = ln lam_a - ln mu_b.
    """
    (lam, u_a), (mu, u_b, kernel) = _spectra(rho_a, ch)
    proj = dag(u_b) @ np.stack(ch.kraus_ops) @ u_a  # (L, r_b, r_a)
    vecs = (proj.conj() * np.sqrt(lam) / np.sqrt(mu)[:, None]).reshape(len(ch.kraus_ops), -1)
    theta = (np.log(lam)[None, :] - np.log(mu)[:, None]).reshape(-1)
    return (u_a, u_b, kernel), vecs, theta


def _eigenbasis_kraus(u_a: np.ndarray, u_b: np.ndarray, kernel: np.ndarray, vecs) -> list:
    """Kraus operators U_A c^T U_B^dagger from the Choi vectors c (rows of
    ``vecs``, each r_B x r_A), plus :func:`_kernel_completion`."""
    c = vecs.reshape(-1, u_b.shape[1], u_a.shape[1])
    return list(u_a @ c.transpose(0, 2, 1) @ dag(u_b)) + _kernel_completion(u_a, kernel)


def _petz_family_kraus(rho_a: DensityOperator, ch: KrausChannel, t: float):
    """Kraus list of the rotated Petz map R^(t/2) plus its kernel completion.

    The map is rho^((1-it)/2) K_i^dagger sigma_B^((-1+it)/2) on the support
    of sigma_B = N(rho): the Petz operators of :func:`_petz_eigenbasis` with
    the phase exp(-i t theta / 2) on each eigenbasis entry.
    :func:`_kernel_completion` covers the kernel.
    """
    (u_a, u_b, kernel), vecs, theta = _petz_eigenbasis(rho_a, ch)
    return _eigenbasis_kraus(u_a, u_b, kernel, vecs * np.exp(-0.5j * t * theta))


def _decoder(
    ops, ch: KrausChannel, kind: str, t: float | None = None, tol: float = CPTP_TOL
) -> Decoder:
    """The Kraus list ``ops``, checked to be CPTP within ``tol``, as a decoder
    from the output of ``ch`` back to its input."""
    dec = KrausChannel(
        kraus_ops=tuple(ops),
        dim_in=ch.dim_out,
        dim_out=ch.dim_in,
        label_in=ch.label_out,
        label_out=ch.label_in,
    )
    validate_cptp(dec, tol)
    return Decoder(channel=dec, kind=kind, t=t)


def build_petz(rho_a: DensityOperator, ch: KrausChannel) -> Decoder:
    """Petz decoder X -> rho^(1/2) N^dagger(N(rho)^(-1/2) X N(rho)^(-1/2)) rho^(1/2)."""
    return _decoder(_petz_family_kraus(rho_a, ch, 0.0), ch, "petz")


def build_rotated_petz(rho_a: DensityOperator, ch: KrausChannel, t: float) -> Decoder:
    """Rotated Petz decoder R^(t/2); t = 0 reproduces the Petz decoder exactly."""
    return _decoder(_petz_family_kraus(rho_a, ch, t), ch, "rotated", t)


class RotatedFidelity:
    """Closed-form entanglement fidelity of the rotated Petz decoders.

    For sigma_RB with marginal eigenvalues {lam_r}, {mu_b}, the fidelity of
    the decoder rotated by t is

        F(t) = sum_jk |S_jk|^2 exp((theta_j + theta_k)/2) exp(i (theta_k - theta_j) t/2)

    where S is sigma_RB in the product eigenbasis restricted to the joint
    support and theta_(r,b) = ln lam_r - ln mu_b. This evaluates the
    squared 2-norm of sigma^(1/2) (sigma_R^((1+it)/2) tensor
    sigma_B^(-(1+it)/2)) sigma^(1/2) spectrally, with kernel directions
    carrying zero weight (powers on the support). With c_jk the weights
    above and z_k(t) = exp(i theta_k t/2), F(t) = Re z(t)^dagger C z(t).

    The code settings repeat theta many times over (lncy4: 32 values, 6
    distinct), so :meth:`value` runs on groups: sorted theta starts a new
    group wherever it exceeds the group's first value by more than
    ``THETA_TIE``, that first value stands for the group, and the weights
    are summed over each pair of groups, C_bar = P^T C P for the one-hot
    n x m group map P. A batch of T values then costs one m x T exponential
    (as its cosines and sines) and two m x m by m x T products. Since every
    c_jk >= 0 and each phase moves by at most THETA_TIE |t| / 2,
    |F_bar(t) - F(t)| <= petz * THETA_TIE * |t|, at most 8e-12 on the
    quadrature nodes (|t| <= 8).
    ``_theta``, ``_coeff`` and ``_delta`` keep the ungrouped spectrum.
    """

    def __init__(self, sigma_rb: DensityOperator):
        if len(sigma_rb.dims) != 2:
            raise DimensionMismatch(f"need a bipartite RB state, got {sigma_rb.dims}")
        m = sigma_rb.matrix
        sig_r = sigma_rb.marginal(sigma_rb.labels[0])
        sig_b = sigma_rb.marginal(sigma_rb.labels[1])
        lam_r, v_r, _ = herm_eig(sig_r).split()
        mu_b, v_b, _ = herm_eig(sig_b).split()
        v = np.kron(v_r, v_b)
        s = dag(v) @ m @ v
        self._theta = (np.log(lam_r)[:, None] - np.log(mu_b)[None, :]).reshape(-1)
        self._coeff = np.abs(s) ** 2 * np.exp(
            (self._theta[:, None] + self._theta[None, :]) / 2
        )
        firsts, group = [], np.empty(self._theta.size, dtype=np.intp)
        for j in np.argsort(self._theta, kind="stable"):
            if not firsts or self._theta[j] - firsts[-1] > THETA_TIE:
                firsts.append(self._theta[j])
            group[j] = len(firsts) - 1
        onehot = np.zeros((self._theta.size, len(firsts)))
        onehot[np.arange(self._theta.size), group] = 1.0
        self._group_theta = np.array(firsts)
        self._group_coeff = onehot.T @ self._coeff @ onehot

    @property
    def _delta(self) -> np.ndarray:
        """Frequencies delta_jk = (theta_k - theta_j)/2 of F(t) = sum c_jk e^(i delta_jk t)."""
        return (self._theta[None, :] - self._theta[:, None]) / 2

    def value(self, t):
        """F(t) on the grouped spectrum (within petz * THETA_TIE * |t| of the
        ungrouped sum): a float for scalar t, an array of the same shape for
        an array t."""
        # Re z^dagger C z = c^T C c + s^T C s for real C, z = c + i s.
        phase = np.multiply.outer(self._group_theta, 0.5 * np.ravel(t))
        c, s = np.cos(phase), np.sin(phase)
        f = np.sum(c * (self._group_coeff @ c) + s * (self._group_coeff @ s), axis=0)
        return float(f[0]) if np.ndim(t) == 0 else f.reshape(np.shape(t))

    def petz(self) -> float:
        return float(np.sum(self._coeff))

    def twirled(self, tol: float = 1e-9) -> float:
        value, _, _ = _beta0_panels(self.value, tol)
        return value


def fe_closed_form(sigma_rb: DensityOperator, variant: str = "petz", t: float = 0.0) -> float:
    """Closed-form decoder fidelity from sigma_RB = N(|rho><rho|).

    ``variant`` is ``petz``, ``rotated`` (uses ``t``), or ``twirled``
    (:meth:`RotatedFidelity.twirled` at its default tolerance).
    """
    kernel = RotatedFidelity(sigma_rb)
    if variant == "petz":
        return kernel.petz()
    if variant == "rotated":
        return kernel.value(t)
    if variant == "twirled":
        return kernel.twirled()
    raise DimensionMismatch(f"unknown fidelity variant {variant!r}")


@functools.lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _beta0_panels(g_batch, tol: float):
    """Adaptive Gauss-Legendre evaluation of integral beta0(t) g(t) dt.

    ``g_batch`` maps a 1-d array of t to the array of g(t). The substitution
    u = tanh(pi t / 2) turns the weight into du/2 exactly; panels over u are
    bisected until halving a panel changes its estimate by at most its
    width-proportional share of ``tol``. Each step evaluates both halves of
    one panel in a single ``g_batch`` call; the panel's own estimate was
    computed when it was created as a half of its parent. Returns the value
    together with the accepted nodes t_i and weights w_i, which satisfy
    value = sum_i w_i g(t_i) and are reusable for matrix integrands.
    """
    x, w = _leggauss(_GL_NODES)

    def panels(bounds):
        """(estimate, nodes, weights) of each (a, b) panel, from one g_batch call."""
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


def _beta0_adaptive(g, tol: float):
    """:func:`_beta0_panels` for a scalar integrand ``g(t) -> float``."""
    return _beta0_panels(lambda ts: np.array([g(t) for t in ts], dtype=np.float64), tol)


def beta0_quadrature(g, tol: float = 1e-9) -> float:
    """Integral of beta0(t) g(t) over the real line for a scalar integrand.

    ``tol`` drives the panel bisection of :func:`_beta0_panels`; it is a
    heuristic target, not an error bound. A panel is accepted when its two
    halves agree with it, which can happen before either is accurate: on
    lncy4 at p = 0.0625 the twirled fidelity at tol = 1e-9 is 5.9e-9 from
    the exact transform sum c_jk delta_jk / sinh(delta_jk), and 2.4e-11
    from it at tol = 1e-12. The integral is also truncated at |t| <= 8,
    which drops beta0 mass 2.4e-11.
    """
    value, _, _ = _beta0_adaptive(g, tol)
    return value


def _twirled_decoder(
    rho_a: DensityOperator, ch: KrausChannel, nodes: np.ndarray, weights: np.ndarray
) -> Decoder:
    """sum_i w_i R^(t_i) over the rotated Petz maps, renormalized to trace
    preservation, with its Kraus operators taken from the spectral core.

    R^t = rho^(-it/2) R^0(sigma_B^(it/2) . sigma_B^(-it/2)) rho^(it/2), so in
    the eigenbases U_B of sigma_B and U_A of rho, restricted to the supports,
    Choi(R^t) is the Petz core C times z(t) z(t)^dagger entrywise, with
    z_(b,a)(t) = exp(-i t theta_ab / 2) and theta_ab = ln lam_a - ln mu_b. The
    weighted sum is the (r_B r_A)^2 core C o (Z diag(w) Z^dagger), renormalized
    here to tr_A = 1 on supp sigma_B. Each support eigenvector c of it, scaled
    by the root of its eigenvalue and reshaped to r_B x r_A, gives the Kraus
    operator U_A c^T U_B^dagger. The Petz map's kernel completion
    (:func:`_kernel_completion`) does not depend on t, so its weight is 1.
    """
    (u_a, u_b, kernel), vecs, theta = _petz_eigenbasis(rho_a, ch)
    r_b, r_a = u_b.shape[1], u_a.shape[1]
    z = np.exp(-0.5j * np.multiply.outer(theta, nodes))
    core = (vecs.T @ vecs.conj()) * ((z * weights) @ dag(z))

    tr_a = partial_trace(core, (r_b, r_a), keep=0)
    fix = np.kron(matrix_power_on_support(tr_a, -0.5), np.eye(r_a))
    w, c, _ = psd_eig(fix @ core @ dag(fix)).split()
    return _decoder(_eigenbasis_kraus(u_a, u_b, kernel, (c * np.sqrt(w)).T), ch, "twirled")


def _twirled_choi(
    rho_a: DensityOperator, ch: KrausChannel, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Choi matrix (input factor first) of :func:`_twirled_decoder`."""
    return choi_of_channel(_twirled_decoder(rho_a, ch, nodes, weights).channel)


def build_twirled_petz(
    rho_a: DensityOperator, ch: KrausChannel, tol: float = 1e-7
) -> Decoder:
    """Twirled Petz decoder, materialized from the spectral core at the
    quadrature nodes of the scalar fidelity formula (see :func:`_twirled_decoder`).

    The averaged core is renormalized to exact trace preservation; the
    materialized fidelity is checked against the scalar twirled value
    within 10 * tol.
    """
    pur = purify(rho_a)
    sigma_rb = channel_on_purification(pur, ch)
    kernel = RotatedFidelity(sigma_rb)
    quad_tol = min(1e-9, tol / 10)
    scalar_value, nodes, weights = _beta0_panels(kernel.value, quad_tol)

    decoder = _twirled_decoder(rho_a, ch, nodes, weights)
    materialized = fe_of_decoder(rho_a, ch, decoder)
    if abs(materialized - scalar_value) > 10 * tol:
        raise ToleranceNotMet(
            f"materialized twirled fidelity {materialized:.12g} deviates from "
            f"closed form {scalar_value:.12g} beyond {10 * tol:g}"
        )
    return decoder


def fe_of_decoder(rho_a: DensityOperator, ch: KrausChannel, decoder: Decoder) -> float:
    """Entanglement fidelity of decoder compose channel by the Kraus-trace
    identity F_e = sum_(l,k) |tr(rho D_l K_k)|^2 (Schumacher,
    quant-ph/9604023), clamped to [0, 1]; no purification is needed."""
    if ch.dim_in != rho_a.dim:
        raise DimensionMismatch(f"channel input {ch.dim_in} != source dim {rho_a.dim}")
    if decoder.channel.dim_in != ch.dim_out or decoder.channel.dim_out != ch.dim_in:
        raise DimensionMismatch("decoder dimensions do not invert the channel")
    k_rho = np.stack(ch.kraus_ops) @ rho_a.matrix
    traces = np.einsum("lab,kba->lk", np.stack(decoder.channel.kraus_ops), k_rho, optimize=True)
    return clamp_unit(np.sum(np.abs(traces) ** 2))


# ---------------------------------------------------------------------------
# Schumacher-Westmoreland construction
# ---------------------------------------------------------------------------


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

    def _to_a(self, cols: np.ndarray) -> list[np.ndarray]:
        """Kraus operators (<sigma_E eigenvector l| on E', Schmidt basis of A on
        R') applied to columns on R'E': one operator per environment slot."""
        t = cols.reshape(self.d_code, self.d_e, cols.shape[1])
        z = np.einsum("el,kec->klc", self.env_eigenvectors.conj(), t, optimize=True)
        return list(np.einsum("ak,klc->lac", self.basis_a, z, optimize=True))

    def decoder_kraus(self) -> list[np.ndarray]:
        """Kraus operators of the decoder, K_l (|0>_{R'A'} tensor 1_B)."""
        return self._to_a(self._apply_u(self.w_input_block))

    def kraus_full(self) -> list[np.ndarray]:
        """Kraus operators K_l of the full R'E' -> A stage (dense)."""
        return self._to_a(self.u_matrix @ self.w_matrix)


def build_sw(rho_a: DensityOperator, ch: KrausChannel) -> tuple[Decoder, SwConstruction]:
    """Schumacher-Westmoreland decoder for (rho_A, N).

    The environment has one slot per Kraus operator (after the Choi
    reduction of :func:`~petzlab.quantum.dilate`), padded with zero slots
    only up to ceil(d_B / rank(rho_A)) so that the input block
    |0>_{R'A'} tensor B fits inside R'E'. The reference system has
    dimension rank(rho_A). Alignment unitaries come from SVDs factored on
    the support of sigma_RE^(1/2) (the support mask applied to the singular
    values of its coefficient matrix); their completions come from the same
    factorizations (:class:`SwConstruction`) and do not affect the decoder's
    action on the channel's output support.
    """
    pur = purify(rho_a)
    cons = SwConstruction(pur, dilate(ch, -(-ch.dim_out // pur.rank)))
    residual = cons.alignment_residual()
    if residual > ALIGNMENT_TOL:
        raise AlignmentFailure(f"alignment residual {residual:.3e} exceeds {ALIGNMENT_TOL}")
    re_mu, im_mu = cons.trace_mu_guard()
    if re_mu < -1e-9 or abs(im_mu) > 1e-9 * max(1.0, re_mu):
        raise AlignmentFailure(f"tr[MU] = {re_mu:.3e} + {im_mu:.3e}i is not real-positive")
    return _decoder(cons.decoder_kraus(), ch, "sw", tol=1e-9), cons
