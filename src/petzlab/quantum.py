"""States, channels, dilations, purifications, canonical codes and channels.

Tensor factors are always labeled explicitly; no operation infers tensor
order silently. Density operators and channels validate their defining
invariants at construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFinite,
    NotPsd,
    NotTracePreserving,
    TooManyKraus,
)
from .matcore import as_cmatrix, dag, herm_eig, real_if_exact

CPTP_TOL = 1e-10
CHOI_TOL = 1e-8

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator on a labeled tensor-factor system; its
    matrix is float64 when its imaginary part is exactly 0, else complex128
    (:func:`~petzlab.matcore.real_if_exact`)."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    # Eigendecomposition of ``matrix``, computed once by the state check.
    spectrum: matcore.HermEig = field(init=False, repr=False)

    def __post_init__(self):
        m = as_cmatrix(self.matrix)
        d = int(np.prod(self.dims))
        if m.shape != (d, d):
            raise DimensionMismatch(f"matrix is {m.shape}, dims {self.dims} require {d}")
        if len(self.labels) != len(self.dims):
            raise DimensionMismatch("labels and dims have different lengths")
        object.__setattr__(self, "spectrum", matcore._check_state(m))
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DimensionMismatch(f"no subsystem labeled {label!r} in {self.labels}")

    def marginal(self, label: str) -> np.ndarray:
        """Reduced density matrix of the labeled subsystem."""
        axis = self.axis_of(label)
        n = len(self.dims)
        t = self.matrix.reshape(self.dims + self.dims)
        for other in reversed([k for k in range(n) if k != axis]):
            t = np.trace(t, axis1=other, axis2=other + (t.ndim // 2))
        return t


def density_operator(matrix, dims=None, labels=None) -> DensityOperator:
    """Build a :class:`DensityOperator`, defaulting to one factor labeled "A"."""
    m = as_cmatrix(matrix)
    if dims is None:
        dims = (m.shape[0],)
    dims = tuple(int(d) for d in dims)
    if labels is None:
        labels = ("A",) if len(dims) == 1 else tuple(f"S{k}" for k in range(len(dims)))
    return DensityOperator(matrix=m, dims=dims, labels=tuple(labels))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map stored as one C-contiguous stack of Kraus operators, of
    shape (L, d_out, d_in): float64 when the stack's imaginary part is
    exactly 0, else complex128 (:func:`~petzlab.matcore.real_if_exact`). Any
    sequence of d_out x d_in matrices, or an array of that stack shape, is
    accepted."""

    kraus_ops: np.ndarray
    dim_in: int
    dim_out: int
    label_in: str = "A"
    label_out: str = "B"

    def __post_init__(self):
        ops = self.kraus_ops
        if len(ops) == 0:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        shape = (self.dim_out, self.dim_in)
        try:
            stack = real_if_exact(ops)
        except ValueError:  # operators of different shapes
            stack = None
        if stack is None or stack.shape != (len(ops),) + shape:
            for k in ops:  # the first non-matrix or non-finite operator raises first
                as_cmatrix(k)
            bad = next(np.shape(k) for k in ops if np.shape(k) != shape)
            raise DimensionMismatch(f"Kraus operator is {bad}, expected {shape}")
        if not np.isfinite(stack).all():
            raise NonFinite("matrix contains NaN or Inf entries")
        object.__setattr__(self, "kraus_ops", stack)

    def kraus_sum(self) -> np.ndarray:
        """Sum of K^dagger K over all Kraus operators, as one stacked product
        (:func:`adjoint_apply` with Y = 1 without the product by 1)."""
        return (dag(self.kraus_ops) @ self.kraus_ops).sum(axis=0)


def kraus_channel(kraus_ops, label_in="A", label_out="B", check=True) -> KrausChannel:
    """Build a :class:`KrausChannel` and (by default) validate trace preservation."""
    if len(kraus_ops) == 0:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d_out, d_in = as_cmatrix(kraus_ops[0]).shape  # KrausChannel checks the others
    ch = KrausChannel(
        kraus_ops=kraus_ops,
        dim_in=d_in,
        dim_out=d_out,
        label_in=label_in,
        label_out=label_out,
    )
    if check:
        validate_cptp(ch)
    return ch


def validate_cptp(ch: KrausChannel, tol: float = CPTP_TOL) -> None:
    """Check sum K^dagger K = identity, scaled by the identity's Frobenius norm."""
    residual = float(np.linalg.norm(ch.kraus_sum() - np.eye(ch.dim_in)))
    if residual > tol * math.sqrt(ch.dim_in):
        raise NotTracePreserving(
            f"Kraus sum deviates from identity by {residual:.3e}", residual=residual
        )


def apply_channel(ch: KrausChannel, x, dims=None, acting_on: int = 0) -> np.ndarray:
    """Apply a channel to one tensor factor of a matrix.

    ``dims`` lists the subsystem dimensions of ``x`` (default: a single
    factor equal to the channel input) and ``acting_on`` is the index of the
    factor the channel acts on. Identity channels on the other factors are
    implicit: ``x`` is taken as blocks over the other factors' indices, each
    a d_in x d_in matrix, and every block goes through sum_k K_k B K_k^dagger
    (for a single factor, the one block is ``x``).
    """
    x = as_cmatrix(x)
    if dims is None:
        dims = (ch.dim_in,)
    dims = tuple(int(d) for d in dims)
    if dims[acting_on] != ch.dim_in:
        raise DimensionMismatch(
            f"factor {acting_on} has dim {dims[acting_on]}, channel input is {ch.dim_in}"
        )
    d_total = int(np.prod(dims))
    if x.shape != (d_total, d_total):
        raise DimensionMismatch(f"matrix is {x.shape}, dims {dims} require {d_total}")
    left = int(np.prod(dims[:acting_on]))
    right = int(np.prod(dims[acting_on + 1 :]))
    d_in, d_out = ch.dim_in, ch.dim_out
    # blocks[(l, r, l', r')] = x[(l, :, r), (l', :, r')]
    blocks = x.reshape(left, d_in, right, left, d_in, right).transpose(0, 2, 3, 5, 1, 4)
    ops = ch.kraus_ops[:, None]
    out = (ops @ blocks.reshape(-1, d_in, d_in) @ dag(ops)).sum(axis=0)
    out = out.reshape(left, right, left, right, d_out, d_out).transpose(0, 4, 1, 2, 5, 3)
    return out.reshape((left * d_out * right,) * 2)


def adjoint_apply(ch: KrausChannel, y) -> np.ndarray:
    """Adjoint (Heisenberg) action sum K^dagger Y K."""
    y = as_cmatrix(y)
    if y.shape != (ch.dim_out, ch.dim_out):
        raise DimensionMismatch(f"operator is {y.shape}, channel output is {ch.dim_out}")
    return (dag(ch.kraus_ops) @ y @ ch.kraus_ops).sum(axis=0)


def tensor_power(ch: KrausChannel, n: int) -> KrausChannel:
    """n-fold tensor power; the Kraus set is all n-fold Kronecker products,
    the first factor's index slowest. Each factor is one broadcast product
    of the stack of products so far with the stack of Kraus operators,
    entry for entry the products np.kron forms."""
    if n < 1:
        raise InvalidParameter(f"tensor power must be >= 1, got {n}")
    ops = k = ch.kraus_ops
    for _ in range(n - 1):
        m, d_out, d_in = ops.shape
        prod = ops[:, None, :, None, :, None] * k[None, :, None, :, None, :]
        ops = prod.reshape(m * len(k), d_out * ch.dim_out, d_in * ch.dim_in)
    return KrausChannel(
        kraus_ops=ops,
        dim_in=ch.dim_in**n,
        dim_out=ch.dim_out**n,
        label_in=ch.label_in,
        label_out=ch.label_out,
    )


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """Isometry V: A -> B tensor E with the environment as the trailing factor."""

    v: np.ndarray  # (d_B * d_E) x d_A
    dim_in: int
    dim_out: int
    dim_env: int


def dilate(ch: KrausChannel, min_env: int) -> StinespringIsometry:
    """Dilation V = sum_l K_l tensor |l>_E with one environment slot per Kraus
    operator, zero-padded to ``min_env`` slots.

    A Kraus list longer than d_A*d_B is first reduced through the Choi
    matrix, so d_E = max(#Kraus, min_env) never needs more than
    max(d_A*d_B, min_env) slots.
    """
    d_a, d_b = ch.dim_in, ch.dim_out
    ops = ch.kraus_ops
    if len(ops) > d_a * d_b:
        ops = channel_from_choi(choi_of_channel(ch), (d_a, d_b)).kraus_ops
        if len(ops) > d_a * d_b:
            raise TooManyKraus(f"{len(ops)} Kraus operators exceed d_A*d_B = {d_a * d_b}")
    d_e = max(len(ops), min_env)
    v = np.zeros((d_b, d_e, d_a), dtype=ops.dtype)
    v[:, : len(ops), :] = ops.transpose(1, 0, 2)
    v = v.reshape(d_b * d_e, d_a)
    return StinespringIsometry(v=v, dim_in=d_a, dim_out=d_b, dim_env=d_e)


def stinespring_dilation(ch: KrausChannel) -> StinespringIsometry:
    """Dilation V = sum_l K_l tensor |l>_E, zero-padded to d_E = d_A * d_B.

    The padded environment is this function's public contract: its
    dimension depends only on d_A and d_B. The SW construction does not
    rely on it; it dilates with one slot per Kraus operator (:func:`dilate`).
    """
    return dilate(ch, ch.dim_in * ch.dim_out)


def _environment_channel(iso: StinespringIsometry, label_in: str) -> KrausChannel:
    """The channel X -> tr_B[V X V^dagger] to the environment of ``iso``, with
    Kraus operators (<b| tensor 1_E) V."""
    ops = iso.v.reshape(iso.dim_out, iso.dim_env, iso.dim_in)
    return KrausChannel(
        ops, dim_in=iso.dim_in, dim_out=iso.dim_env, label_in=label_in, label_out="E"
    )


def complementary_channel(ch: KrausChannel) -> KrausChannel:
    """Channel to the environment E of the Stinespring dilation, X -> tr_B[V X V^dagger]."""
    return _environment_channel(stinespring_dilation(ch), ch.label_in)


def choi_of_channel(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| tensor N(|i><j|), input factor first."""
    vecs = ch.kraus_ops.transpose(0, 2, 1).reshape(len(ch.kraus_ops), -1).T
    return vecs @ dag(vecs)


def channel_from_choi(c, dims: tuple[int, int]) -> KrausChannel:
    """Recover a Kraus channel A -> B from a Choi matrix (input factor first)."""
    d_in, d_out = dims
    c = as_cmatrix(c)
    if c.shape != (d_in * d_out, d_in * d_out):
        raise DimensionMismatch(f"Choi matrix is {c.shape}, dims {dims} need {d_in * d_out}")
    eig = herm_eig(c, tol=CHOI_TOL)
    w = eig.eigenvalues
    if w[-1] < -CHOI_TOL * max(1.0, float(w[0])):
        raise NotPsd(f"Choi matrix has eigenvalue {w[-1]:.3e}")
    tr_out = matcore.partial_trace(c, (d_in, d_out), keep=0)
    residual = float(np.linalg.norm(tr_out - np.eye(d_in)))
    if residual > CHOI_TOL * math.sqrt(d_in):
        raise NotTracePreserving(
            f"Choi partial trace deviates from identity by {residual:.3e}", residual=residual
        )
    lam, vecs, _ = eig.split()
    if not lam.size:
        raise NotPsd("Choi matrix is numerically zero")
    ops = (vecs.T * np.sqrt(lam)[:, None]).reshape(-1, d_in, d_out).transpose(0, 2, 1)
    return KrausChannel(kraus_ops=ops, dim_in=d_in, dim_out=d_out)


@dataclass(frozen=True, eq=False)
class PurifiedSource:
    """A source state with its canonical purification |rho>_{RA} and Schmidt data.

    The reference system R has dimension equal to the numerical rank of the
    state; its Schmidt basis is the computational basis of R and the A-side
    Schmidt basis consists of eigenvectors of the state, eigenvalues
    descending.
    """

    rho: DensityOperator
    vector: np.ndarray  # unit vector on R tensor A
    schmidt_coeffs: np.ndarray  # probabilities, descending
    basis_a: np.ndarray  # d_A x d_R, orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.schmidt_coeffs.size)

    @property
    def dim_a(self) -> int:
        return self.rho.dim


def purify(rho: DensityOperator) -> PurifiedSource:
    """Canonical purification |rho>_RA in the eigenbasis of the state."""
    lam, basis_a, _ = rho.spectrum.split()
    lam = lam / lam.sum()
    vec = (basis_a * np.sqrt(lam)).T.reshape(-1)  # index (r, a), row-major
    return PurifiedSource(rho=rho, vector=vec, schmidt_coeffs=lam, basis_a=basis_a)


def channel_on_purification(pur: PurifiedSource, ch: KrausChannel) -> DensityOperator:
    """Send the A part of |rho><rho|_{RA} through a channel; returns the RB state."""
    if ch.dim_in != pur.dim_a:
        raise DimensionMismatch(f"channel input {ch.dim_in} != source dim {pur.dim_a}")
    d_r = pur.rank
    psi = pur.vector.reshape(d_r, pur.dim_a)
    branches = (psi @ ch.kraus_ops.transpose(0, 2, 1)).reshape(len(ch.kraus_ops), -1).T
    return DensityOperator(
        matrix=branches @ dag(branches), dims=(d_r, ch.dim_out), labels=("R", ch.label_out)
    )


def entanglement_fidelity_direct(rho: DensityOperator, ch: KrausChannel) -> float:
    """Entanglement fidelity <rho| (id tensor M)(|rho><rho|) |rho>, by the
    Kraus-trace identity sum_k |tr(rho K_k)|^2, clamped to [0, 1].

    The identity holds for every purification, so none is built.
    """
    if ch.dim_in != ch.dim_out or ch.dim_in != rho.dim:
        raise DimensionMismatch("channel must be endomorphic on the source system")
    traces = np.einsum("ab,kba->k", rho.matrix, ch.kraus_ops)
    return matcore.clamp_unit(np.sum(np.abs(traces) ** 2))


def make_channel(kind: str, p: float = 0.0, n: int = 1) -> KrausChannel:
    """Named single-qubit channel families, optionally tensor-powered.

    ``kind`` is one of ``bitflip``, ``amplitude_damping``, ``identity``,
    ``depolarizing``; ``p`` is the noise parameter in [0, 1] and ``n >= 1``
    the number of tensor factors.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"noise parameter must be in [0, 1], got {p}")
    eye = _PAULI["I"]
    if kind == "bitflip":
        ops = [math.sqrt(1 - p) * eye, math.sqrt(p) * _PAULI["X"]]
    elif kind == "amplitude_damping":
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - p)]])
        k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]])
        ops = [k0, k1]
    elif kind == "identity":
        ops = [eye]
    elif kind == "depolarizing":
        ops = [
            math.sqrt(1 - 3 * p / 4) * eye,
            math.sqrt(p / 4) * _PAULI["X"],
            math.sqrt(p / 4) * _PAULI["Y"],
            math.sqrt(p / 4) * _PAULI["Z"],
        ]
    else:
        raise InvalidParameter(f"unknown channel kind {kind!r}")
    ops = np.array(ops)
    ops = ops[ops.any(axis=(1, 2))]  # drop zero operators, as sqrt(p) X at p = 0
    ch = kraus_channel(ops, label_in="A", label_out="B")
    if n != 1:  # tensor_power rejects n < 1
        ch = tensor_power(ch, n)
        validate_cptp(ch)
    return ch


def pauli_string(s: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"XZZXI"``."""
    out = None
    for c in s:
        out = _PAULI[c] if out is None else np.kron(out, _PAULI[c])
    return out


_FIVEQUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def code_logical_states(kind: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Logical |0_L>, |1_L> and qubit count for the named code."""
    if kind == "bitflip3":
        zero = np.zeros(8)
        one = np.zeros(8)
        zero[0b000] = 1.0
        one[0b111] = 1.0
        return zero, one, 3
    if kind == "lncy4":
        zero = np.zeros(16)
        one = np.zeros(16)
        zero[0b0000] = zero[0b1111] = 1 / math.sqrt(2)
        one[0b0011] = one[0b1100] = 1 / math.sqrt(2)
        return zero, one, 4
    if kind == "fivequbit":
        # Project |00000> onto the code space of the standard cyclic
        # stabilizer generators; the logical X is X^{tensor 5}.
        vec = np.zeros(32)
        vec[0] = 1.0
        for s in _FIVEQUBIT_STABILIZERS:
            vec = (vec + pauli_string(s) @ vec) / 2
        zero = vec / np.linalg.norm(vec)
        one = pauli_string("XXXXX") @ zero
        return zero, one, 5
    raise InvalidParameter(f"unknown code kind {kind!r}")


@functools.cache
def make_code_source(kind: str) -> DensityOperator:
    """Maximally mixed state on the code space, (|0_L><0_L| + |1_L><1_L|)/2.

    The state does not depend on the channel, so it is built and checked
    once per kind and process and then shared: every call with one kind
    returns the same object, whose matrix and spectrum arrays are read-only.
    An unknown kind raises :class:`InvalidParameter` and is not cached."""
    zero, one, _ = code_logical_states(kind)
    m = (np.outer(zero, zero.conj()) + np.outer(one, one.conj())) / 2
    rho = density_operator(m)
    for array in (rho.matrix, rho.spectrum.eigenvalues, rho.spectrum.eigenvectors):
        array.flags.writeable = False
    return rho
