"""Petz, rotated-Petz, twirled-Petz, and Schumacher-Westmoreland decoders.

Decoders are materialized as CPTP Kraus channels from B back to A. Their
entanglement fidelities follow from the Kraus-trace identity
F_e = sum |tr(rho D_l K_k)|^2 and, for the Petz family, from closed-form
expressions in the channeled purification sigma_RB. The Petz-family maps
and the SDP reduction split the spectra of rho and sigma_B = N(rho) once
per call (:func:`_spectra`). The twirled decoder averages the rotated
decoders against the density beta0(t) = (pi/2) / (cosh(pi t) + 1), whose
Fourier transform is exactly kappa(x) = x / sinh(x)
(:func:`_beta0_transform`; Junge, Renner, Sutter, Wilde and Winter,
arXiv:1509.07127). So the twirled fidelity is sum_jk c_jk kappa(delta_jk)
(:meth:`RotatedFidelity.exact_twirled`), and the twirled decoder's Kraus
operators are the eigenvectors of its (r_B r_A)^2 core, the Petz Choi
matrix in the eigenbases of (sigma_B, rho) multiplied entrywise by the
averaged phases kappa((theta_j - theta_k)/2) and renormalized to trace
preservation on supp sigma_B; its kernel gets the completion the Petz map
uses. The adaptive quadrature (:meth:`RotatedFidelity.twirled`) serves the
sweep's scalar series: it evaluates the rotated fidelity spectrally at a
whole panel of nodes per call, on the distinct values of the log-ratio
spectrum theta: values within ``THETA_TIE`` are merged, which moves F(t) by
at most petz * THETA_TIE * |t|, so by <= 8e-12 on the nodes. F(t) is even,
so it is integrated on the half line t >= 0. The SW decoder is the
Uhlmann polar factor of one overlap matrix, from the eigendecompositions
of sigma_E and sigma_B and one SVD (:func:`build_sw`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChannelOutput,
    DimensionMismatch,
    InvalidParameter,
    ToleranceNotMet,
)
from .matcore import (
    clamp_unit,
    dag,
    herm_eig,
    matrix_power_on_support,
    partial_trace,
    psd_eig,
)
from .quantum import (
    CPTP_TOL,
    DensityOperator,
    KrausChannel,
    apply_channel,
    channel_on_purification,
    dilate,
    purify,
    validate_cptp,
)

# Hard truncation of the beta0 integral at |t| <= 8; the tail mass is
# 1 - tanh(4*pi) ~ 2.4e-11.
_T_MAX = 8.0
_U_MAX = math.tanh(math.pi * _T_MAX / 2)
_GL_NODES = 64
_INITIAL_PANELS = 4
_MAX_DEPTH = 52
_MAX_PANELS = 2**16  # panels bisected per quadrature, at most
_BATCH_PANELS = 64  # panels bisected per g_batch call, at most

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
        kraus_ops=np.eye(dim)[None],
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
    eig_b = herm_eig(apply_channel(ch, rho_a.matrix))
    if eig_b.eigenvalues[0] <= 1e-14:
        raise DegenerateChannelOutput("channel output state is numerically zero")
    lam, u_a, _ = rho_a.spectrum.split()
    return (lam, u_a), eig_b.split()


def _kernel_completion(u_a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Kraus operators |u_j><k_m| / sqrt(r) over the r support vectors u_j of
    rho and the kernel vectors k_m of sigma_B, stacked with m slowest: they
    measure the kernel of sigma_B and output the maximally mixed state on
    supp(rho), which makes a map on supp(sigma_B) CPTP everywhere without
    affecting fidelities."""
    d_a, r = u_a.shape
    ops = u_a.T[None, :, :, None] * kernel.T.conj()[:, None, None, :]
    return ops.reshape(-1, d_a, kernel.shape[0]) / math.sqrt(r)


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
    proj = dag(u_b) @ ch.kraus_ops @ u_a  # (L, r_b, r_a)
    vecs = (proj.conj() * np.sqrt(lam) / np.sqrt(mu)[:, None]).reshape(len(ch.kraus_ops), -1)
    theta = (np.log(lam)[None, :] - np.log(mu)[:, None]).reshape(-1)
    return (u_a, u_b, kernel), vecs, theta


def _eigenbasis_kraus(u_a: np.ndarray, u_b: np.ndarray, kernel: np.ndarray, vecs) -> np.ndarray:
    """Kraus operators U_A c^T U_B^dagger from the Choi vectors c (rows of
    ``vecs``, each r_B x r_A), followed by :func:`_kernel_completion`."""
    c = vecs.reshape(-1, u_b.shape[1], u_a.shape[1])
    support = u_a @ c.transpose(0, 2, 1) @ dag(u_b)
    return np.concatenate([support, _kernel_completion(u_a, kernel)])


def _petz_family_kraus(rho_a: DensityOperator, ch: KrausChannel, t: float):
    """Kraus stack of the rotated Petz map R^(t/2) plus its kernel completion.

    The map is rho^((1-it)/2) K_i^dagger sigma_B^((-1+it)/2) on the support
    of sigma_B = N(rho): the Petz operators of :func:`_petz_eigenbasis` with
    the phase exp(-i t theta / 2) on each eigenbasis entry, applied only for
    t != 0, so that the Petz map of real data stays real.
    :func:`_kernel_completion` covers the kernel.

    In exact arithmetic the support Kraus sum S = sum_l c_l^* c_l^T over the
    Choi vectors c_l (each r_B x r_A) is 1; in floating point it carries
    roundoff amplified by the condition number of sigma_B. Where
    ||S - 1||_F misses :func:`~petzlab.quantum.validate_cptp`'s bound
    CPTP_TOL sqrt(d_B), each c_l becomes (S^(-1/2))^T c_l, which makes the
    sum 1 on supp sigma_B, as :func:`_twirled_decoder` renormalizes its core;
    otherwise the vectors are used as they are.
    """
    (u_a, u_b, kernel), vecs, theta = _petz_eigenbasis(rho_a, ch)
    r_b = u_b.shape[1]
    if t != 0:
        vecs = vecs * np.exp(-0.5j * t * theta)
    c = vecs.reshape(-1, r_b, u_a.shape[1])
    rows = c.transpose(1, 0, 2).reshape(r_b, -1)  # row b: every c_l[b, :]
    s = rows.conj() @ rows.T
    if np.linalg.norm(s - np.eye(r_b)) > CPTP_TOL * math.sqrt(ch.dim_out):
        c = matrix_power_on_support(s, -0.5).T @ c
    return _eigenbasis_kraus(u_a, u_b, kernel, c)


def _decoder(ops, ch: KrausChannel, kind: str, t: float | None = None) -> Decoder:
    """The Kraus stack ``ops``, checked to be CPTP within
    :data:`~petzlab.quantum.CPTP_TOL`, as a decoder from the output of
    ``ch`` back to its input."""
    dec = KrausChannel(
        kraus_ops=ops,
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
    quadrature nodes (|t| <= 8). The groups are formed on the first call of
    :meth:`value`; ``_theta``, ``_coeff`` and ``_delta`` keep the ungrouped
    spectrum, which is all :meth:`petz` and :meth:`exact_twirled` read.
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

    @functools.cached_property
    def _group_theta(self) -> np.ndarray:
        """The first (smallest) theta of each group, ascending."""
        firsts: list[float] = []
        for theta in np.sort(self._theta):
            if not firsts or theta - firsts[-1] > THETA_TIE:
                firsts.append(theta)
        return np.array(firsts)

    @functools.cached_property
    def _group_coeff(self) -> np.ndarray:
        """C_bar = P^T C P; theta belongs to the last group whose first value
        does not exceed it."""
        group = np.searchsorted(self._group_theta, self._theta, side="right") - 1
        onehot = np.zeros((self._theta.size, self._group_theta.size))
        onehot[np.arange(self._theta.size), group] = 1.0
        return onehot.T @ self._coeff @ onehot

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
        """The beta0 average of F(t) by :func:`_beta0_panels` at ``tol``, on
        the half line t >= 0. C_bar is real and symmetric, so F(-t) = F(t)
        exactly (cos is even, sin odd), and the accepted panels are the
        u >= 0 half of the full-line run's: the value keeps that run's
        quadrature error and differs from it only by summation roundoff."""
        value, _, _ = _beta0_panels(self.value, tol, even=True)
        return value

    def exact_twirled(self) -> float:
        """The beta0 average of F(t) in closed form, sum_jk c_jk kappa(delta_jk)
        with kappa = :func:`_beta0_transform`, on the ungrouped spectrum (no
        ``THETA_TIE``), with no quadrature or truncation error."""
        return float(np.sum(self._coeff * _beta0_transform(self._delta)))


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
    raise InvalidParameter(f"unknown fidelity variant {variant!r}")


def _beta0_transform(x):
    """kappa(x) = integral beta0(t) e^(i x t) dt = x / sinh(x), kappa(0) = 1,
    elementwise (Junge, Renner, Sutter, Wilde and Winter, arXiv:1509.07127).

    It is taken as 2|x| e^(-|x|) / (1 - e^(-2|x|)), which neither overflows
    nor loses digits to cancellation near 0; beyond |x| = 700, where kappa is
    below 1e-300, it is 0. So it is finite for every finite x.
    """
    a = np.abs(np.asarray(x, dtype=np.float64))
    safe = np.where(a > 0, np.minimum(a, 700.0), 1.0)
    kappa = 2 * safe * np.exp(-safe) / -np.expm1(-2 * safe)
    return np.where(a == 0, 1.0, np.where(a > 700.0, 0.0, kappa))


@functools.lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _beta0_panels(g_batch, tol: float, *, even: bool = False):
    """Adaptive Gauss-Legendre evaluation of integral beta0(t) g(t) dt.

    ``g_batch`` maps a 1-d array of t to the array of g(t). The substitution
    u = tanh(pi t / 2) turns the weight into du/2 exactly; panels over u are
    bisected until halving a panel changes its estimate by at most its
    width-proportional share of ``tol``. The open panels are kept left to
    right, and one ``g_batch`` call evaluates both halves of the leftmost
    _BATCH_PANELS of them (every open panel while there are fewer); a
    panel's own estimate was computed when it was created as a half of its
    parent. Each panel keeps its own dot-product estimate and the accepted
    panels are summed left to right, so the value, nodes and weights are
    those of bisecting one panel at a time, depth first.

    :class:`ToleranceNotMet` is raised by a panel still open at depth
    _MAX_DEPTH, by a run that would bisect more than _MAX_PANELS panels
    (a tol below roundoff; lncy4 at tol 1e-13 bisects at most 59460 on its
    21-point grid), and by a non-finite g value, since no estimate that
    includes it can be accepted. A call evaluates at most
    2 * _BATCH_PANELS * _GL_NODES nodes.

    Returns the value together with the accepted nodes t_i and weights w_i,
    which satisfy value = sum_i w_i g(t_i) and are reusable for matrix
    integrands.

    ``even=True`` states that g(-t) = g(t) exactly. beta0 is even and the
    nodes of a panel and of its mirror image are exact negatives of each
    other, so only the two u >= 0 panels of the same initial four are
    bisected, with the same acceptance threshold, and the sum is doubled.
    The accepted panels are then the u >= 0 half of the full run's, and so
    are the returned nodes and weights, with value = 2 sum_i w_i g(t_i).
    While at most _BATCH_PANELS panels are open, each call evaluates half
    the nodes of the full run's call at the same level.
    """
    x, w = _leggauss(_GL_NODES)

    def panels(bounds):
        """(estimate, nodes, weights) of each (a, b) panel, from one g_batch call."""
        parts = []
        for a, b in bounds:
            mid, half = (a + b) / 2, (b - a) / 2
            parts.append((2.0 / math.pi * np.arctanh(mid + half * x), 0.5 * half * w))
        vals = np.asarray(g_batch(np.concatenate([t for t, _ in parts])), dtype=np.float64)
        if not np.isfinite(vals).all():
            raise ToleranceNotMet("beta0 quadrature integrand is not finite")
        return [
            (float(np.dot(weights, vals[i * _GL_NODES : (i + 1) * _GL_NODES])), t, weights)
            for i, (t, weights) in enumerate(parts)
        ]

    total_width = 2 * _U_MAX
    edges = np.linspace(-_U_MAX, _U_MAX, _INITIAL_PANELS + 1)
    if even:
        edges = edges[_INITIAL_PANELS // 2 :]  # starts at u = 0 exactly
    bounds = list(zip(edges[:-1], edges[1:]))
    # open panels (a, b, depth, estimate), the leftmost last
    stack = [(a, b, 0, est) for (a, b), (est, _, _) in zip(bounds, panels(bounds))][::-1]
    accepted = []  # (a, left half, right half) of each accepted panel
    bisected = 0
    while stack:
        batch = stack[-_BATCH_PANELS:][::-1]
        del stack[-_BATCH_PANELS:]
        bisected += len(batch)
        if bisected > _MAX_PANELS:
            raise ToleranceNotMet(
                f"beta0 quadrature did not reach tol {tol:g} within {_MAX_PANELS} panels"
            )
        halves = panels([h for a, b, _, _ in batch for h in ((a, (a + b) / 2), ((a + b) / 2, b))])
        children = []
        for (a, b, depth, est), left, right in zip(batch, halves[0::2], halves[1::2]):
            if abs(est - (left[0] + right[0])) <= tol * (b - a) / total_width:
                accepted.append((a, left, right))
            elif depth >= _MAX_DEPTH:
                raise ToleranceNotMet(
                    f"beta0 quadrature did not reach tol {tol:g} at depth {depth}"
                )
            else:
                mid = (a + b) / 2
                children += [(a, mid, depth + 1, left[0]), (mid, b, depth + 1, right[0])]
        stack += children[::-1]
    accepted.sort(key=lambda panel: panel[0])
    value = 0.0
    for _, (est_l, _, _), (est_r, _, _) in accepted:
        value += est_l + est_r
    if even:
        value *= 2
    nodes = [t for _, left, right in accepted for t in (left[1], right[1])]
    weights = [wt for _, left, right in accepted for wt in (left[2], right[2])]
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
    the exact transform sum c_jk kappa(delta_jk)
    (:meth:`RotatedFidelity.exact_twirled`), and 2.4e-11 from it at
    tol = 1e-12. The integral is also truncated at |t| <= 8, which drops
    beta0 mass 2.4e-11. The twirled decoder uses the exact transform, not
    this quadrature; the sweep's scalar ``twirled`` series still does.
    """
    value, _, _ = _beta0_adaptive(g, tol)
    return value


def _twirled_decoder(ch: KrausChannel, petz, phases: np.ndarray) -> Decoder:
    """The average of the rotated Petz maps R^t with averaged phase matrix
    ``phases``, renormalized to trace preservation, with its Kraus operators
    taken from the spectral core. ``petz`` is :func:`_petz_eigenbasis` of
    the source and ``ch``.

    R^t = rho^(-it/2) R^0(sigma_B^(it/2) . sigma_B^(-it/2)) rho^(it/2), so in
    the eigenbases U_B of sigma_B and U_A of rho, restricted to the supports,
    Choi(R^t) is the Petz core C times z(t) z(t)^dagger entrywise, with
    z_(b,a)(t) = exp(-i t theta_ab / 2) and theta_ab = ln lam_a - ln mu_b. An
    average of R^t is the (r_B r_A)^2 core C o P for the n x n average P of
    z(t) z(t)^dagger: P_jk = kappa((theta_j - theta_k)/2) for the beta0
    average (:func:`_beta0_transform`), or Z diag(w) Z^dagger at quadrature
    nodes t_i with weights w_i. The core is renormalized here to tr_A = 1 on
    supp sigma_B. Each support eigenvector c of it, scaled by the root of its
    eigenvalue and reshaped to r_B x r_A, gives the Kraus operator
    U_A c^T U_B^dagger. The Petz map's kernel completion
    (:func:`_kernel_completion`) does not depend on t, so its weight is 1.
    """
    (u_a, u_b, kernel), vecs, _ = petz
    r_b, r_a = u_b.shape[1], u_a.shape[1]
    core = (vecs.T @ vecs.conj()) * phases

    tr_a = partial_trace(core, (r_b, r_a), keep=0)
    fix = np.kron(matrix_power_on_support(tr_a, -0.5), np.eye(r_a))
    w, c, _ = psd_eig(fix @ core @ dag(fix)).split()
    return _decoder(_eigenbasis_kraus(u_a, u_b, kernel, (c * np.sqrt(w)).T), ch, "twirled")


def build_twirled_petz(
    rho_a: DensityOperator, ch: KrausChannel, tol: float = 1e-7
) -> Decoder:
    """Twirled Petz decoder, the beta0 average of the rotated Petz maps,
    materialized from the spectral core with the exact averaged phases
    kappa((theta_j - theta_k)/2) (see :func:`_twirled_decoder`); no
    quadrature runs.

    The averaged core is renormalized to exact trace preservation; the
    materialized fidelity is checked against
    :meth:`RotatedFidelity.exact_twirled` within 10 * tol, so ``tol`` must
    be finite and positive (else :class:`InvalidParameter`).
    """
    if not 0 < tol < math.inf:
        raise InvalidParameter(f"tol must be finite and positive, got {tol!r}")
    petz = _petz_eigenbasis(rho_a, ch)
    theta = petz[2]
    decoder = _twirled_decoder(ch, petz, _beta0_transform(np.subtract.outer(theta, theta) / 2))
    materialized = fe_of_decoder(rho_a, ch, decoder)
    exact = RotatedFidelity(channel_on_purification(purify(rho_a), ch)).exact_twirled()
    if abs(materialized - exact) > 10 * tol:
        raise ToleranceNotMet(
            f"materialized twirled fidelity {materialized:.12g} deviates from "
            f"closed form {exact:.12g} beyond {10 * tol:g}"
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
    k_rho = ch.kraus_ops @ rho_a.matrix
    traces = np.einsum("lab,kba->lk", decoder.channel.kraus_ops, k_rho, optimize=True)
    return clamp_unit(np.sum(np.abs(traces) ** 2))


# ---------------------------------------------------------------------------
# Schumacher-Westmoreland construction
# ---------------------------------------------------------------------------


def build_sw(rho_a: DensityOperator, ch: KrausChannel) -> tuple[Decoder, np.ndarray]:
    """Schumacher-Westmoreland decoder for (rho_A, N): the Uhlmann alignment
    of |sigma>_RBE = (1_R tensor V)|rho> with a purification of
    sigma_R tensor sigma_E.

    The environment has one slot per Kraus operator (after the Choi
    reduction of :func:`~petzlab.quantum.dilate`), padded with zero slots
    only up to ceil(d_B / rank(rho_A)) so that B fits inside R'E'; R' has
    dimension rank(rho_A). Let X be the (RE) x B coefficient matrix of
    |sigma>, and Phi = diag(sqrt(lam)) tensor E diag(sqrt(mu)) that of a
    purification of sigma_R tensor sigma_E, from the eigendecomposition
    sigma_E = E diag(mu) E^dagger. The overlap <Phi| (1 tensor T)|sigma> is
    tr(T N) for the d_B x (R'E') matrix N = X^T Phi^*, and the thin SVD
    N = U S V^dagger gives the maximizing isometry T = V U^dagger: B -> R'E'.
    The decoder's Kraus operators are basis_a T[(., e'), :], one per
    environment slot e'. Any other purification of sigma_E, such as
    sigma_E^(1/2), changes T by a unitary on E', which the trace over E'
    removes. Off supp sigma_B, where N vanishes, T is whichever isometric
    completion the SVD returns, which no fidelity sees.

    The SVD is taken of N with its rows in the eigenbasis of sigma_B, where
    they are graded by weight. In the standard basis of B every row mixes
    all weights, and T would carry the SVD's roundoff eps * S[0] / s on a
    direction of singular value s (1.6e-10 in the Choi matrix at fivequbit,
    p = 1e-6, against 6e-15 graded, both from a 40-digit polar factor).

    Returns the decoder and the singular values S of N, descending; their
    sum is the fidelity F(sigma_RE, sigma_R tensor sigma_E) that T attains.
    """
    pur = purify(rho_a)
    iso = dilate(ch, -(-ch.dim_out // pur.rank))
    d, d_b, d_e = pur.rank, iso.dim_out, iso.dim_env
    sqrt_lam = np.sqrt(pur.schmidt_coeffs)
    sigma = ((iso.v @ pur.basis_a) * sqrt_lam).T.reshape(d, d_b, d_e)  # sigma[r, b, e]
    eig_e = herm_eig(np.einsum("rbe,rbf->ef", sigma, sigma.conj(), optimize=True))
    root_e = eig_e.eigenvectors * np.sqrt(np.clip(eig_e.eigenvalues, 0.0, None))
    overlap = (sqrt_lam[:, None, None] * sigma) @ root_e.conj()  # N[r, b, e']
    x_t = sigma.transpose(1, 0, 2).reshape(d_b, d * d_e)  # X^T
    w_b = herm_eig(x_t @ dag(x_t)).eigenvectors  # eigenbasis of sigma_B
    graded = dag(w_b) @ overlap.transpose(1, 0, 2).reshape(d_b, d * d_e)
    u, s, vh = np.linalg.svd(graded, full_matrices=False)
    t = (dag(vh) @ dag(w_b @ u)).reshape(d, d_e, d_b)
    return _decoder(np.einsum("ar,reb->eab", pur.basis_a, t, optimize=True), ch, "sw"), s
