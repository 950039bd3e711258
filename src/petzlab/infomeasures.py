"""Entropies, Petz and sandwiched Renyi divergences, and mutual informations.

All logarithms are base 2. Divergence second arguments may be arbitrary
positive semidefinite operators (not necessarily normalized); infinities
arising from support violations are returned as explicit ``math.inf``
values inside :class:`DivergenceResult`, never as sentinel numbers.

The inner minimizations over an auxiliary state (orders 2 and 1/2) are
evaluated in closed form; the reductions are gated by brute-force grid
oracles in the test suite before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    InvalidParameter,
    NegativeEpsilon,
    SupportViolation,
)
from .matcore import (
    as_cmatrix,
    dag,
    herm_eig,
    herm_part,
    kron,
    matrix_power_on_support,
    on_support,
    partial_trace,
    power_on_support,
    psd_eig,
    psd_sqrt,
)
from .quantum import DensityOperator

# Mass a state may place on the kernel of the divergence's second argument
# before the support clause is considered violated.
SUPPORT_LEAK_TOL = 1e-10

COND_AC = "absolutely_continuous"
COND_NOT_ORTH = "not_orthogonal"
COND_VIOLATED = "support_violated"


@dataclass(frozen=True)
class DivergenceResult:
    """Divergence value together with the support condition that fired."""

    value: float
    support_condition: str


def _state_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityOperator):
        return rho.matrix
    return as_cmatrix(rho)


def _kernel_leak(rho: np.ndarray, eig) -> float:
    """Mass of rho on the kernel of sigma, given sigma's eigendecomposition
    (0 iff rho << sigma)."""
    kernel = eig.split()[2]
    return float(np.trace(dag(kernel) @ rho @ kernel).real)


def _orthogonal(rho: np.ndarray, sigma: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(rho) * np.linalg.norm(sigma)))
    return float(np.linalg.norm(rho @ sigma)) <= 1e-12 * scale


def _support_condition(rho: np.ndarray, sigma: np.ndarray, eig, alpha: float):
    """Support condition of a Renyi divergence of order alpha != 1, or None
    when the divergence is +inf. It is finite when rho << sigma, or when
    alpha < 1 and rho is not orthogonal to sigma."""
    if _kernel_leak(rho, eig) <= SUPPORT_LEAK_TOL:
        return COND_AC
    if alpha < 1 and not _orthogonal(rho, sigma):
        return COND_NOT_ORTH
    return None


def entropy(rho, alpha: float | None = None) -> float:
    """Von Neumann entropy, or the Renyi entropy of order ``alpha`` if given."""
    eig = rho.spectrum if isinstance(rho, DensityOperator) else herm_eig(as_cmatrix(rho))
    w = eig.split()[0]
    if alpha is None:
        return float(-np.sum(w * np.log2(w)))
    if alpha <= 0 or alpha == 1:
        raise InvalidOrder(f"Renyi order must be in (0,1) or (1,inf), got {alpha}")
    return float(np.log2(np.sum(w**alpha)) / (1 - alpha))


def entropy_derived(rho: DensityOperator, kind: str, cut: str | None = None) -> float:
    """Conditional entropy H(A|B), mutual information I(A:B), or coherent information.

    ``cut`` names the subsystem playing the role of A; it defaults to the
    first label. The state must be bipartite.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch(f"need a bipartite state, got dims {rho.dims}")
    label_a = cut if cut is not None else rho.labels[0]
    label_b = [l for l in rho.labels if l != label_a][0]
    h_ab = entropy(rho)
    h_a = entropy(rho.marginal(label_a))
    h_b = entropy(rho.marginal(label_b))
    if kind == "conditional":
        return h_ab - h_b
    if kind == "mutual":
        return h_a + h_b - h_ab
    if kind == "coherent":
        return h_b - h_ab
    raise InvalidParameter(f"unknown derived entropy kind {kind!r}")


def relative_entropy(rho, sigma) -> DivergenceResult:
    """Quantum relative entropy D(rho || sigma) with PSD (not necessarily
    normalized) second argument; +inf unless rho << sigma."""
    r, s = _state_matrix(rho), as_cmatrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    eig = herm_eig(s)
    if _kernel_leak(r, eig) > SUPPORT_LEAK_TOL:
        return DivergenceResult(math.inf, COND_VIOLATED)
    val = np.trace(r @ (on_support(herm_eig(r), np.log2) - on_support(eig, np.log2))).real
    return DivergenceResult(float(val), COND_AC)


def petz_divergence(rho, sigma, alpha: float) -> DivergenceResult:
    """Petz Renyi divergence (1/(alpha-1)) log tr[rho^alpha sigma^(1-alpha)].

    Finite when (alpha < 1 and rho not orthogonal to sigma) or rho << sigma;
    +inf otherwise. alpha = 1 routes to the relative entropy, alpha = 0 to
    its limit -log tr[Pi_rho sigma].
    """
    if alpha < 0:
        raise InvalidOrder(f"Petz order must be >= 0, got {alpha}")
    r, s = _state_matrix(rho), as_cmatrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    if alpha == 1:
        return relative_entropy(r, s)
    eig = herm_eig(s)
    condition = _support_condition(r, s, eig, alpha)
    if condition is None:
        return DivergenceResult(math.inf, COND_VIOLATED)
    if alpha == 0:
        pi = matrix_power_on_support(r, 0.0)
        return DivergenceResult(float(-np.log2(np.trace(pi @ s).real)), condition)
    t = np.trace(matrix_power_on_support(r, alpha) @ power_on_support(eig, 1 - alpha)).real
    return DivergenceResult(float(np.log2(t) / (alpha - 1)), condition)


def sandwiched_divergence(rho, sigma, alpha: float) -> DivergenceResult:
    """Sandwiched Renyi divergence log2(sum w^alpha) / (alpha - 1) over the
    support eigenvalues w of the PSD sandwich sigma^x rho sigma^x,
    x = (1-alpha)/2alpha; roundoff below the support cut does not enter."""
    if alpha <= 0:
        raise InvalidOrder(f"sandwiched order must be positive, got {alpha}")
    r, s = _state_matrix(rho), as_cmatrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    if alpha == 1:
        return relative_entropy(r, s)
    eig = herm_eig(s)
    condition = _support_condition(r, s, eig, alpha)
    if condition is None:
        return DivergenceResult(math.inf, COND_VIOLATED)
    half = power_on_support(eig, (1 - alpha) / (2 * alpha))
    w = herm_eig(half @ r @ half).split()[0]
    return DivergenceResult(float(np.log2(np.sum(w**alpha)) / (alpha - 1)), condition)


def _bipartite(state: DensityOperator) -> tuple[np.ndarray, int, int]:
    if len(state.dims) != 2:
        raise DimensionMismatch(f"need a bipartite state, got dims {state.dims}")
    return state.matrix, state.dims[0], state.dims[1]


def min_petz_mi_order2(sigma_rb: DensityOperator, w_r) -> float:
    """Minimized generalized Petz Renyi mutual information of order 2,
    inf over states tau of D_2(sigma_RB || W_R tensor tau).

    Closed form: with Y = tr_R[(W^(-1/2) tensor 1) sigma^2 (W^(-1/2) tensor 1)]
    the minimizer is tau proportional to sqrt(Y) and the value is
    2 log2 tr[sqrt(Y)]. Y = B B^dagger for B = [M_1 ... M_dR], the d_B-row
    blocks of M = (W^(-1/2) tensor 1) sigma side by side, so tr[sqrt(Y)] is
    the sum of the singular values of B: no squared spectrum is formed or
    cut at RANK_CUT.
    """
    m, d_r, d_b = _bipartite(sigma_rb)
    w_r = as_cmatrix(w_r)
    if w_r.shape != (d_r, d_r):
        raise DimensionMismatch(f"W_R is {w_r.shape}, expected {(d_r, d_r)}")
    eig = psd_eig(w_r)
    pi_w = power_on_support(eig, 0.0)
    # tr[sigma ((1 - Pi_W) tensor 1)] = tr[tr_B(sigma) (1 - Pi_W)]
    leak = np.einsum("ij,ji->", partial_trace(m, (d_r, d_b), keep=0), np.eye(d_r) - pi_w).real
    if leak > SUPPORT_LEAK_TOL:
        raise SupportViolation(f"state has mass {leak:.3e} outside supp(W_R) tensor 1")
    n = d_r * d_b
    blocks = (power_on_support(eig, -0.5) @ m.reshape(d_r, d_b * n)).reshape(d_r, d_b, n)
    b = blocks.transpose(1, 0, 2).reshape(d_b, d_r * n)
    return float(2 * np.log2(np.linalg.svd(b, compute_uv=False).sum()))


def singly_min_petz_mi_half(sigma_re: DensityOperator) -> float:
    """Singly minimized Petz Renyi mutual information of order 1/2,
    inf over states tau of D_{1/2}(sigma_RE || sigma_R tensor tau).

    Closed form: -log2 tr[Z^2] with Z = tr_R[(sigma_R^(1/2) tensor 1) sigma_RE^(1/2)];
    Z is PSD and the supremum of tr[Z tau^(1/2)] over states is its
    Hilbert-Schmidt norm (Cauchy-Schwarz, saturated at tau ~ Z^2).
    sigma_RE^(1/2) is taken from the state's stored spectrum.
    """
    m, d_r, d_e = _bipartite(sigma_re)
    sig_r = partial_trace(m, (d_r, d_e), keep=0)
    sqrt_re = herm_part(power_on_support(sigma_re.spectrum, 0.5))
    sqrt_re = sqrt_re.reshape(d_r, d_e, d_r, d_e)
    z = np.einsum("rs,serf->ef", psd_sqrt(sig_r), sqrt_re)
    z = (z + dag(z)) / 2
    return float(-np.log2(np.trace(z @ z).real))


def sandwiched_mi_up(sigma_rb: DensityOperator, w_r) -> float:
    """Non-minimized generalized sandwiched Renyi mutual information of
    order 2, D~_2(sigma_RB || W_R tensor sigma_B)."""
    m, d_r, d_b = _bipartite(sigma_rb)
    w_r = as_cmatrix(w_r)
    if w_r.shape != (d_r, d_r):
        raise DimensionMismatch(f"W_R is {w_r.shape}, expected {(d_r, d_r)}")
    sig_b = partial_trace(m, (d_r, d_b), keep=1)
    second = kron(w_r, sig_b)
    if _kernel_leak(m, herm_eig(second)) > SUPPORT_LEAK_TOL:
        raise SupportViolation("state not absolutely continuous w.r.t. W_R tensor sigma_B")
    quarter = kron(
        matrix_power_on_support(w_r, -0.25), matrix_power_on_support(sig_b, -0.25)
    )
    inner = quarter @ m @ quarter
    return float(np.log2(np.trace(inner @ inner).real))


def sandwiched_mi_upup_half(sigma_re: DensityOperator) -> float:
    """Non-minimized sandwiched Renyi mutual information of order 1/2,
    -2 log2 F(sigma_RE, sigma_R tensor sigma_E)."""
    from .matcore import fidelity

    m, d_r, d_e = _bipartite(sigma_re)
    sig_r = partial_trace(m, (d_r, d_e), keep=0)
    sig_e = partial_trace(m, (d_r, d_e), keep=1)
    return float(-2 * np.log2(fidelity(m, kron(sig_r, sig_e))))


def epsilon_sw(sigma_rb: DensityOperator) -> float:
    """Conditional-entropy gap -D(sigma_RB || sigma_R^(-1) tensor sigma_B).

    Equals H(RB) + H(R) - H(B) = H(R|B)_sigma - H(R|A)_rho for a purified
    source, because log(sigma_R^(-1) tensor sigma_B) splits into the two
    factors' logs on supp sigma_R tensor supp sigma_B, which holds the
    support of sigma_RB. It is taken from the three spectra, each over its
    own support, so no eigenvalue range spans both condition numbers. The
    value is reported as computed, without clamping.
    """
    m, d_r, d_b = _bipartite(sigma_rb)
    h_r = entropy(partial_trace(m, (d_r, d_b), keep=0))
    h_b = entropy(partial_trace(m, (d_r, d_b), keep=1))
    return entropy(sigma_rb) + h_r - h_b


def sw_original_bound(eps: float) -> float:
    """Original fidelity lower bound 1 - sqrt(ln(2)/2 * eps), unclamped."""
    if eps < 0:
        raise NegativeEpsilon(f"epsilon must be nonnegative, got {eps}")
    return 1.0 - math.sqrt(math.log(2) / 2 * eps)
