"""Petz, rotated-Petz, twirled-Petz, and Schumacher-Westmoreland decoders.

Decoders are materialized as CPTP Kraus channels from B back to A. Their
entanglement fidelities follow from the Kraus-trace identity
F_e = sum |tr(rho D_l K_k)|^2 and, for the Petz family, from closed-form
expressions in the channeled purification sigma_RB. The Petz-family maps
and the SDP reduction split the spectra of rho and sigma_B = N(rho) once
per call (:func:`_spectra`). The twirled decoder averages the rotated
decoders against the density beta0(t) = (pi/2) / (cosh(pi t) + 1): the
adaptive quadrature evaluates the rotated fidelity spectrally at a whole
panel of nodes per call. The twirled decoder's Kraus operators are the
eigenvectors of its (r_B r_A)^2 core, the Petz Choi matrix in the
eigenbases of (sigma_B, rho) multiplied entrywise by the averaged phases
and renormalized to trace preservation on supp sigma_B; its kernel gets
the completion the Petz map uses.
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
    dag,
    herm_eig,
    matrix_power_on_support,
    partial_trace,
    psd_eig,
    support_mask,
)
from .quantum import (
    DensityOperator,
    KrausChannel,
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
    """Spectra of rho and of sigma_B = N(rho), each split once at the support
    cut (:meth:`~petzlab.matcore.HermEig.split`).

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
    lam, u_a, _ = herm_eig(rho_a.matrix).split()
    return (lam, u_a), eig_b.split()


def _kernel_completion(u_a: np.ndarray, kernel: np.ndarray) -> list[np.ndarray]:
    """Kraus operators |u_j><k_m| / sqrt(r) over the r support vectors u_j of
    rho and the kernel vectors k_m of sigma_B: they measure the kernel of
    sigma_B and output the maximally mixed state on supp(rho), which makes a
    map on supp(sigma_B) CPTP everywhere without affecting fidelities."""
    r = u_a.shape[1]
    return [np.outer(u, k.conj()) / math.sqrt(r) for k in kernel.T for u in u_a.T]


def _petz_family_kraus(rho_a: DensityOperator, ch: KrausChannel, t: float):
    """Kraus list of the rotated Petz map R^(t/2) plus its kernel completion.

    The map is rho^((1-it)/2) K_i^dagger sigma_B^((-1+it)/2) on the support
    of sigma_B = N(rho); :func:`_kernel_completion` covers the kernel.
    """
    (lam, u_a), (mu, u_b, kernel) = _spectra(rho_a, ch)
    rho_half = (u_a * np.exp((1 - 1j * t) / 2 * np.log(lam))) @ dag(u_a)
    sig_inv_half = (u_b * np.exp((-1 + 1j * t) / 2 * np.log(mu))) @ dag(u_b)
    ops = [rho_half @ dag(k) @ sig_inv_half for k in ch.kraus_ops]
    return ops + _kernel_completion(u_a, kernel)


def _decoder(ops, ch: KrausChannel, kind: str, t: float | None = None) -> Decoder:
    """The Kraus list ``ops``, checked to be CPTP, as a decoder from the output
    of ``ch`` back to its input."""
    dec = KrausChannel(
        kraus_ops=tuple(ops),
        dim_in=ch.dim_out,
        dim_out=ch.dim_in,
        label_in=ch.label_out,
        label_out=ch.label_in,
    )
    validate_cptp(dec)
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
    above and z_k(t) = exp(i theta_k t/2), F(t) = Re z(t)^dagger C z(t), so
    a batch of T values costs one n x T exponential and one n x n by n x T
    product.
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

    @property
    def _delta(self) -> np.ndarray:
        """Frequencies delta_jk = (theta_k - theta_j)/2 of F(t) = sum c_jk e^(i delta_jk t)."""
        return (self._theta[None, :] - self._theta[:, None]) / 2

    def value(self, t):
        """F(t): a float for scalar t, an array of the same shape for an array t."""
        z = np.exp(0.5j * np.multiply.outer(self._theta, t))
        f = np.sum(z.conj() * np.tensordot(self._coeff, z, axes=1), axis=0).real
        return float(f) if np.ndim(t) == 0 else f

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
    (lam, u_a), (mu, u_b, kernel) = _spectra(rho_a, ch)
    r_b, r_a = mu.size, lam.size

    # Petz Kraus operators rho^(1/2) K_i^dagger sigma_B^(-1/2) in the
    # eigenbases; the Choi vector of K has entries K[a, b] at index (b, a).
    proj = dag(u_b) @ np.stack(ch.kraus_ops) @ u_a  # (L, r_b, r_a)
    vecs = (proj.conj() * np.sqrt(lam) / np.sqrt(mu)[:, None]).reshape(len(ch.kraus_ops), -1)
    theta = (np.log(lam)[None, :] - np.log(mu)[:, None]).reshape(-1)
    z = np.exp(-0.5j * np.multiply.outer(theta, nodes))
    core = (vecs.T @ vecs.conj()) * ((z * weights) @ dag(z))

    tr_a = partial_trace(core, (r_b, r_a), keep=0)
    fix = np.kron(matrix_power_on_support(tr_a, -0.5), np.eye(r_a))
    w, c, _ = psd_eig(fix @ core @ dag(fix)).split()
    c = (c * np.sqrt(w)).T.reshape(-1, r_b, r_a)
    ops = list(u_a @ c.transpose(0, 2, 1) @ dag(u_b))
    return _decoder(ops + _kernel_completion(u_a, kernel), ch, "twirled")


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
    return float(min(1.0, max(0.0, np.sum(np.abs(traces) ** 2))))


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


def _complement(columns: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal completion of a set of orthonormal columns."""
    n, r = columns.shape
    if r >= n:
        return np.zeros((n, 0), dtype=np.complex128)
    q = np.linalg.qr(columns, mode="complete")[0]
    return q[:, r:]


class SwConstruction:
    """Intermediate objects of the SW decoder construction.

    Holds the Schmidt data, the Stinespring isometry, the spectral data of
    sigma_E, and rank-factored forms of the overlap matrix M, its polar
    unitary U, and the purification-alignment unitary W. Dense matrices are
    materialized lazily; the decoder itself only needs the columns of U W
    over the physical input block |0>_{R'A'} tensor B.
    """

    def __init__(
        self,
        schmidt_coeffs,
        basis_a,
        isometry,
        env_eigenvalues,
        env_eigenvectors,
        x_coeff,
        u_r,
        s_r,
        v_x,
        m_left,
        m_right,
        m_singular_values,
        u_thin_left,
        u_thin_right,
    ):
        self.schmidt_coeffs = schmidt_coeffs
        self.basis_a = basis_a
        self.isometry: StinespringIsometry = isometry
        self.env_eigenvalues = env_eigenvalues
        self.env_eigenvectors = env_eigenvectors
        self.x_coeff = x_coeff  # coefficient matrix of |sigma> for the (RE)|(B) cut
        self.u_r = u_r  # eigenvectors of sigma_RE on its support
        self.s_r = s_r  # singular values: sqrt of sigma_RE eigenvalues
        self.v_x = v_x  # right Schmidt vectors of |sigma> on B
        self._m_left = m_left  # M = m_left diag(s_r) m_right
        self._m_right = m_right
        self.m_singular_values = m_singular_values
        self._u_thin_left = u_thin_left  # thin SVD factors of M
        self._u_thin_right = u_thin_right
        self.d_code = schmidt_coeffs.size
        self.d_a = basis_a.shape[0]
        self.d_e = env_eigenvalues.size
        self.d_b = isometry.dim_out
        self.dim = self.d_code * self.d_e  # dimension of R'E'
        self.ref_index = 0  # |0>_{R'A'} is the first computational basis vector

    # -- applications of Omega = 1_R' tensor (E E^T) --------------------------

    @functools.cached_property
    def omega_env(self) -> np.ndarray:
        e = self.env_eigenvectors
        return e @ e.T

    def _apply_omega(self, x: np.ndarray, conjugate: bool = False) -> np.ndarray:
        om = self.omega_env.conj() if conjugate else self.omega_env
        return _apply_block_kron(np.ones(self.d_code), om, x)

    # -- lazy completions ------------------------------------------------------

    @functools.cached_property
    def _u_kernel(self) -> np.ndarray:
        return _complement(self._u_thin_left)

    @functools.cached_property
    def _v_kernel(self) -> np.ndarray:
        return _complement(dag(self._u_thin_right))

    @functools.cached_property
    def _u_p_full(self) -> np.ndarray:
        return np.hstack([self.u_r, _complement(self.u_r)])

    @functools.cached_property
    def _v_q_embedded(self) -> np.ndarray:
        v = np.zeros((self.dim, self.v_x.shape[1]), dtype=np.complex128)
        v[: self.d_b, :] = self.v_x
        return v

    @functools.cached_property
    def _v_q_kernel(self) -> np.ndarray:
        return _complement(self._v_q_embedded)

    # -- the alignment unitaries ----------------------------------------------

    @functools.cached_property
    def w_input_block(self) -> np.ndarray:
        """W (|0>_{R'A'} tensor 1_B): the only columns of W the decoder uses."""
        rows = np.hstack([self.v_x, self._v_q_kernel[: self.d_b, :]])  # d_b x dim
        return self._apply_omega(self._u_p_full.conj() @ rows.T)

    @functools.cached_property
    def uw_input_block(self) -> np.ndarray:
        """Columns of U W over the physical input block."""
        w0 = self.w_input_block
        thin = dag(self._u_thin_right) @ (dag(self._u_thin_left) @ w0)
        return thin + self._v_kernel @ (dag(self._u_kernel) @ w0)

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
        return dag(self._u_thin_right) @ dag(self._u_thin_left) + self._v_kernel @ dag(
            self._u_kernel
        )

    @functools.cached_property
    def w_matrix(self) -> np.ndarray:
        """Purification-alignment unitary W (dense)."""
        v_q = np.hstack([self._v_q_embedded, self._v_q_kernel])
        return self._apply_omega(self._u_p_full.conj()) @ v_q.T

    # -- invariants ------------------------------------------------------------

    def psi_sigma_matrix(self) -> np.ndarray:
        """Coefficient matrix of |Psi^sigma> = sigma_RE^(1/2)|Omega> (dense)."""
        left = self.u_r * self.s_r
        right = self._apply_omega(self.u_r.conj()).T  # u_r^dagger applied to Omega
        return left @ right

    def alignment_residual(self) -> float:
        """Frobenius residual of |Psi^sigma> = W (|sigma> tensor |0>)."""
        aligned = self.x_coeff @ self.w_input_block.T
        return float(np.linalg.norm(self.psi_sigma_matrix() - aligned))

    def trace_mu_guard(self) -> tuple[float, float]:
        """tr[M U] as (real, imag); equals ||M||_1 up to roundoff."""
        b2u = (self._m_right @ dag(self._u_thin_right)) @ dag(self._u_thin_left)
        b2u = b2u + (self._m_right @ self._v_kernel) @ dag(self._u_kernel)
        val = complex(np.trace((self.s_r[:, None] * (b2u @ self._m_left)).T))
        return val.real, val.imag

    def decoder_kraus(self) -> list[np.ndarray]:
        """Kraus operators of the decoder, K_l (|0>_{R'A'} tensor 1_B)."""
        t2 = self.uw_input_block.reshape(self.d_code, self.d_e, self.d_b)
        z1 = np.einsum("el,keb->klb", self.env_eigenvectors.conj(), t2, optimize=True)
        ops = np.einsum("ak,klb->lab", self.basis_a, z1, optimize=True)
        return [ops[l] for l in range(self.d_e)]

    def kraus_full(self) -> list[np.ndarray]:
        """Kraus operators K_l of the full R'E' -> A stage (dense)."""
        uw = self.u_matrix @ self.w_matrix
        t2 = uw.reshape(self.d_code, self.d_e, self.dim)
        z1 = np.einsum("el,kec->klc", self.env_eigenvectors.conj(), t2, optimize=True)
        ops = np.einsum("ak,klc->lac", self.basis_a, z1, optimize=True)
        return [ops[l] for l in range(self.d_e)]


def build_sw(rho_a: DensityOperator, ch: KrausChannel) -> tuple[Decoder, SwConstruction]:
    """Schumacher-Westmoreland decoder for (rho_A, N).

    The environment has one slot per Kraus operator (after the Choi
    reduction of :func:`~petzlab.quantum.dilate`), padded with zero slots
    only up to ceil(d_B / rank(rho_A)) so that the input block
    |0>_{R'A'} tensor B fits inside R'E'. The reference system has
    dimension rank(rho_A). Alignment unitaries come from SVDs factored on
    the support of sigma_RE^(1/2) (the support mask applied to the singular
    values of its coefficient matrix), with deterministic null-space
    completions; the completions do not affect the decoder's action on the
    channel's output support.
    """
    pur = purify(rho_a)
    iso = dilate(ch, -(-ch.dim_out // pur.rank))
    d, d_a, d_b, d_e = pur.rank, ch.dim_in, ch.dim_out, iso.dim_env
    n = d * d_e

    # |sigma>_RBE = (1_R tensor V)|rho>, stored as (R, B, E).
    va = iso.v @ pur.basis_a  # (d_B d_E) x d
    psi3 = (va * np.sqrt(pur.schmidt_coeffs)).T.reshape(d, d_b, d_e)

    sigma_e = np.einsum("kbe,kbf->ef", psi3, psi3.conj(), optimize=True)
    eig_e = herm_eig(sigma_e)
    mu, e_mat = eig_e.eigenvalues, eig_e.eigenvectors

    # Coefficient matrix of |sigma> for the (RE)|(B) cut and its thin SVD;
    # sigma_RE = X X^dagger. The support is cut on s, the spectrum of
    # sigma_RE^(1/2), since the alignment acts on amplitudes: cutting s^2
    # drops bitflip3's directions with s ~ 1e-7 * s_max at p = 1e-14, and the
    # alignment check then rejects the decoder.
    x = psi3.transpose(0, 2, 1).reshape(n, d_b)
    u_full, s_full, vh_full = np.linalg.svd(x, full_matrices=False)
    rank = int(np.count_nonzero(support_mask(s_full)))
    u_r, s_r, v_x = u_full[:, :rank], s_full[:rank], dag(vh_full[:rank, :])

    # T = sigma_hat^(1/2) sigma_RE^(1/2) = L diag(s_r) U_r^dagger and
    # M = Omega T^T Omega^* = m_left diag(s_r) m_right, all rank-factored.
    sqrt_mu = np.sqrt(np.clip(mu, 0.0, None))
    sqrt_sigma_e = (e_mat * sqrt_mu) @ dag(e_mat)
    ell = _apply_block_kron(np.sqrt(pur.schmidt_coeffs), sqrt_sigma_e, u_r)

    om_e = e_mat @ e_mat.T
    m_left = _apply_block_kron(np.ones(d), om_e, u_r.conj())
    m_right = _apply_block_kron(np.ones(d), om_e.conj(), ell).T

    q1, r1 = np.linalg.qr(m_left)
    q2, r2 = np.linalg.qr(dag(m_right))
    core_u, core_s, core_vh = np.linalg.svd((r1 * s_r) @ dag(r2))
    u_thin_left = q1 @ core_u
    u_thin_right = core_vh @ dag(q2)

    cons = SwConstruction(
        schmidt_coeffs=pur.schmidt_coeffs,
        basis_a=pur.basis_a,
        isometry=iso,
        env_eigenvalues=mu,
        env_eigenvectors=e_mat,
        x_coeff=x,
        u_r=u_r,
        s_r=s_r,
        v_x=v_x,
        m_left=m_left,
        m_right=m_right,
        m_singular_values=core_s,
        u_thin_left=u_thin_left,
        u_thin_right=u_thin_right,
    )

    residual = cons.alignment_residual()
    if residual > ALIGNMENT_TOL:
        raise AlignmentFailure(f"alignment residual {residual:.3e} exceeds {ALIGNMENT_TOL}")
    re_mu, im_mu = cons.trace_mu_guard()
    if re_mu < -1e-9 or abs(im_mu) > 1e-9 * max(1.0, re_mu):
        raise AlignmentFailure(f"tr[MU] = {re_mu:.3e} + {im_mu:.3e}i is not real-positive")

    dec = KrausChannel(
        kraus_ops=tuple(cons.decoder_kraus()),
        dim_in=d_b,
        dim_out=d_a,
        label_in=ch.label_out,
        label_out=ch.label_in,
    )
    validate_cptp(dec, tol=1e-9)
    return Decoder(channel=dec, kind="sw"), cons
