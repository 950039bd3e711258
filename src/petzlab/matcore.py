"""Dense complex-matrix kernel.

Hermitian eigendecomposition, SVD, matrix powers on the support (including
imaginary exponents), Schatten norms, partial trace, and fidelity. All
functions operate on plain ``numpy`` arrays in row-major dense layout and
reject non-finite input.

Support policy: the support of a Hermitian matrix with descending spectrum
w is the set of eigenvalues above RANK_CUT * max(w[0], 0); the rest is its
kernel. :func:`support_mask` is the only place this cut is made. Every
power on the support, purification rank, Kraus count, kernel completion
and entropy in the package takes its support from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    NonFinite,
    NotHermitian,
    NotPsd,
    NotState,
)

# Relative eigenvalue threshold of the support (see :func:`support_mask`).
# Matches double-precision spectral accuracy.
RANK_CUT = 1e-12

HERM_TOL = 1e-10
STATE_TOL = 1e-10


def as_cmatrix(x) -> np.ndarray:
    """Validate and return ``x`` as a finite, 2-d complex128 array."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack (..., m, n)."""
    return x.conj().swapaxes(-1, -2)


def herm_part(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X^dagger)/2."""
    return (x + dag(x)) / 2


def support_mask(w: np.ndarray) -> np.ndarray:
    """Mask of the support of a descending spectrum: w > RANK_CUT * max(w[0], 0)."""
    cut = RANK_CUT * max(float(w[0]), 0.0) if w.size else 0.0
    return w > cut


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition H = V diag(w) V^dagger, eigenvalues descending."""

    eigenvalues: np.ndarray  # real, sorted descending
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dag(v)

    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support eigenvalues (all positive), support eigenvectors, and
        kernel eigenvectors, at the cut of :func:`support_mask`."""
        kept = support_mask(self.eigenvalues)
        v = self.eigenvectors
        return self.eigenvalues[kept], v[:, kept], v[:, ~kept]


@dataclass(frozen=True)
class Svd:
    """Singular value decomposition M = U diag(s) Vh, singular values descending."""

    u: np.ndarray
    singular_values: np.ndarray
    vh: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vh


def herm_eig(h, tol: float = HERM_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian n x n matrix, eigenvalues descending.

    The input must be Hermitian within ``tol`` (Frobenius, relative to
    max(1, ||h||)); small asymmetry is repaired by symmetrization, larger
    asymmetry raises :class:`NotHermitian`.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"matrix is {h.shape}, not square")
    if not np.isfinite(h).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.linalg.norm(h)))
    asym = float(np.linalg.norm(h - dag(h)))
    if asym > tol * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {tol:.1e} * {scale:.3e}")
    try:
        w, v = np.linalg.eigh(herm_part(h))
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer driver can fail to converge on a valid
        # Hermitian matrix, whichever caller built it, so every call keeps
        # this retry. herm_part(h) is exactly Hermitian, so its upper triangle
        # describes the same matrix and takes a different reduction path.
        w, v = np.linalg.eigh(herm_part(h), UPLO="U")
    # eigh returns ascending eigenvalues
    return HermEig(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def svd(m) -> Svd:
    """Full SVD as an :class:`Svd` record."""
    m = as_cmatrix(m)
    u, s, vh = np.linalg.svd(m)
    return Svd(u=u, singular_values=s, vh=vh)


def on_support(eig: HermEig, f) -> np.ndarray:
    """V diag(f(w)) V^dagger with f taken on the support of ``eig`` and 0 on
    its kernel."""
    w = eig.eigenvalues
    kept = support_mask(w)
    out = np.zeros(w.shape, dtype=np.complex128)
    out[kept] = f(w[kept])
    v = eig.eigenvectors
    return (v * out) @ dag(v)


def power_on_support(eig: HermEig, z: complex) -> np.ndarray:
    """The matrix of ``eig`` raised to z = exp(z ln w) on its support, 0 on
    its kernel, so negative and complex exponents are well defined."""
    z = np.asarray(z, dtype=np.complex128)
    return on_support(eig, lambda w: np.exp(z * np.log(w)))


def psd_eig(p) -> HermEig:
    """Eigendecomposition of a matrix that must be PSD within HERM_TOL
    (relative to max(1, largest eigenvalue)); raises :class:`NotPsd`."""
    eig = herm_eig(p)
    w = eig.eigenvalues
    if w.size and w[-1] < -HERM_TOL * max(1.0, float(w[0])):
        raise NotPsd(f"minimum eigenvalue {w[-1]:.3e} is negative beyond tolerance")
    return eig


def matrix_power_on_support(p, z: complex) -> np.ndarray:
    """Power of a PSD matrix taken on its support (:func:`support_mask`).

    Kernel directions map to zero. For purely imaginary ``z`` the result is
    unitary on the support.
    """
    return power_on_support(psd_eig(p), z)


def psd_sqrt(p) -> np.ndarray:
    """Square root of a PSD matrix on its support."""
    return herm_part(matrix_power_on_support(p, 0.5))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a matrix on a bipartite tensor product.

    ``dims = (d_A, d_B)`` gives the two subsystem dimensions (A is the
    leading factor); ``keep`` selects the factor that survives (0 or 1).
    """
    m = as_cmatrix(m)
    d_a, d_b = dims
    if m.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"matrix is {m.shape}, dims {dims} require {d_a * d_b}")
    if keep not in (0, 1):
        raise DimensionMismatch(f"keep must be 0 or 1, got {keep}")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm (quasi-norm for p < 1) from singular values."""
    if not p > 0:
        raise InvalidOrder(f"Schatten order must be positive, got {p}")
    m = as_cmatrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if np.isinf(p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def _check_state(rho: np.ndarray) -> HermEig:
    """Check that ``rho`` is a density matrix, to STATE_TOL; returns its eigendecomposition."""
    rho = as_cmatrix(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STATE_TOL * 10:
        raise NotState(f"trace {tr:.6g} is not 1")
    eig = herm_eig(rho)
    if eig.eigenvalues[-1] < -STATE_TOL * max(1.0, float(eig.eigenvalues[0])):
        raise NotState(f"minimum eigenvalue {eig.eigenvalues[-1]:.3e} is negative")
    return eig


def require_finite(x: float) -> float:
    """``x`` as a float; a NaN or infinite ``x`` raises :class:`NonFinite`."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"value {x} is not finite")
    return x


def clamp_unit(x: float) -> float:
    """``x`` clamped to [0, 1], where roundoff can push a fidelity or a bound
    on it (fivequbit lower_sw and upper_bk at p = 0 are 1 + 4e-16); a NaN or
    infinite ``x`` raises :class:`NonFinite` instead of being clamped."""
    return min(1.0, max(0.0, require_finite(x)))


def fidelity(rho, sigma) -> float:
    """Fidelity ||rho^{1/2} sigma^{1/2}||_1 between two density operators."""
    rho, sigma = as_cmatrix(rho), as_cmatrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    prod = herm_part(power_on_support(_check_state(rho), 0.5))
    prod = prod @ herm_part(power_on_support(_check_state(sigma), 0.5))
    s = np.linalg.svd(prod, compute_uv=False)
    return clamp_unit(np.sum(s))


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more matrices."""
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out
