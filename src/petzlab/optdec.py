"""Optimal-decoder fidelity by a dense primal-dual interior-point SDP.

The maximal achievable entanglement fidelity over all CPTP decoders is the
value of

    maximize  tr[G X]   subject to   tr_out[X] = 1_in,  X >= 0,

where X ranges over Choi matrices of decoders (input factor first) and G
encodes the entanglement fidelity as a linear functional. The dual is
minimize tr[Y] subject to Y tensor 1_out >= G. Problems are reduced to the
supports of the channel output and the source before solving.

The reduced problem is then split into independent symmetry sectors. If the
reduced input space is an orthogonal sum of subspaces S_k and G is
block-diagonal with respect to the sum of the S_k tensor (output), pinching
any feasible X onto those blocks keeps tr_out X = 1 and tr[G X], so the
optimum is the sum of the sector optima and the block sum of the sector
duals is dual feasible (Gatermann-Parrilo, J. Pure Appl. Algebra 192
(2004)). Every split is a proposal plus one certificate. A proposal is an
orthonormal basis of the input with a label on each basis vector; the
certificate, :func:`_split`, keeps the split only if the coupling of G
between basis vectors of different labels is at most SECTOR_TOL * ||G||,
and then cuts G into the pieces. Without a certified split the problem is
solved whole.

There are two proposals, applied in turn. The qubit permutations that leave
the source and the support of the channel output invariant
(:func:`_stabilizers`, from one table of permuted row indices) propose the
sectors, the eigenspaces of one fixed combination of them
(:func:`_sector_bases`). The permutation sectors need not be irreducible,
and :func:`_refine_sectors` splits each further into the pieces of its
objective's own block algebra (Murota, Kanno, Kojima and Kojima, Japan J.
Indust. Appl. Math. 27 (2010) 125). With G_k = sum_ab G_ab tensor |a><b|
over the output indices, one eigh of a fixed generic Hermitian combination
h = sum_ab c_ab (G_ab + G_ba) gives a basis of the sector's input; the
pieces are the connected components of the graph on that basis with an
edge where some entry of a rotated G_ab exceeds SECTOR_TOL * ||G_k||
(:func:`_propose_pieces`). A sector within SECTOR_TOL of an earlier one (the
aligned copies below) reuses that sector's basis and pieces, so its pieces
stay copies. lncy4's sectors (1, 3, 3, 3, 6 wide) become pieces 1 to 3 wide,
bitflip3's (2, 2, 4) pieces 2 wide (1 wide at p = 0.5); fivequbit's sectors
are irreducible and stay whole. A reduced problem the permutation split left
whole is solved whole.

A sector or piece with a one-dimensional input (lncy4 has five 1-wide
pieces at every interior point) needs no interior point: tr_out X = 1 makes
X a density matrix on the output, so its optimum is lambda_max(G_k),
attained by the projector onto a top eigenvector and certified by the dual
y = lambda_max. :func:`_solve_one_wide_stack` takes them all from one
stacked eigvalsh, with gaps at eigvalsh's roundoff.

Each interior-point iteration factors X = Lx Lx^dagger and Z = Lz Lz^dagger
once by Cholesky and inverts the factors. The Nesterov-Todd scaling point
comes from them and one SVD of Lz^dagger Lx (Todd, Toh and Tutuncu, "On the
Nesterov-Todd direction in semidefinite programming", SIAM J. Optim. 8
(1998) 769), Z^-1 = Lz^-dagger Lz^-1, and both step lengths from
lambda_min(L^-1 dS L^-dagger); no eigendecomposition of X or Z is formed.

The sectors wider than 1 are solved as one stacked interior-point run
(:func:`_solve_stack`). Each is first zero-padded to the widest input among
them (:func:`_pad_input`): a pad block whose objective is 0 leaves the
optimum unchanged, by the same pinching argument, so the padded member's
primal, dual and gap certify its sector. Each step acts on the k x n x n
stack at once, which shares the Python-level cost of an iteration among the
k members, while each member keeps its own step lengths, centering,
tolerance tol/K and convergence test and leaves the stack once it has
converged.

Sectors that carry the same irreducible representation of the permutation
group have one objective up to a change of basis (the isotypic blocks repeat
once per dimension of the irrep). :func:`_sector_bases` aligns their bases
so that the objectives coincide up to roundoff, and :func:`_solve_stack`
iterates only on the distinct objectives of its stack. The SDP is invariant
under X -> M^dagger X M for every product unitary M = V tensor W, V on the
input and W on the output, since tr_out is unchanged (Gatermann-Parrilo), so
a member whose G_i is within e <= SECTOR_TOL * ||G_r|| of M^dagger G_r M for
an earlier distinct member r (Frobenius norms) is a copy: it takes
X_i = M^dagger X_r M and Y_i = V^dagger Y_r V + e 1, and widens its dual
and its certified gap by d_in e. M = 1 is tried first, as the only case
before. Then V diagonal and W = 1, the sign or phase freedom of the
eigensolvers that made the pieces' bases, found by putting every member in
one gauge of its phases (:func:`_phase_gauge`). Last, for a two-dimensional
output, :func:`_propose_products` proposes V and W: W from the rotation of
the Gram matrix of the objective's output-Pauli components (when its
spectrum is simple, so that the rotation is fixed up to signs), V as the
intertwiner of the rotated components. Only the copy check accepts, so a
wrong proposal costs a solve, never a wrong value. So fivequbit's padded run
iterates on 2 members (its four 6-wide pieces become one class, by W = a
quarter turn about z), and so does lncy4's (its four 2-wide pieces differ by
signs); bitflip3's 2-wide pieces stay 3 classes.

Whether a problem is solved in real or in complex arithmetic is decided
once, from its objectives (:func:`_objectives`): a stack whose imaginary part
is exactly 0 is solved in real (float64) arithmetic, since for real G, Re X
is feasible whenever X is and has the same objective value, so the real and
the complex SDP share their optimum. Every step of the solve, the Schur
solve included, then runs in the objective's own arithmetic. The test is
exact, not a tolerance; a stack with any nonzero imaginary entry stays
complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .decoders import _spectra, fe_closed_form
from .errors import BracketViolated, DimensionMismatch, MaxIterations, NumericalBreakdown
from .matcore import dag, herm_eig, herm_part
from .quantum import (
    DensityOperator,
    KrausChannel,
    channel_on_purification,
    density_operator,
    purify,
    validate_cptp,
)

MAX_ITER = 100
STEP_FRACTION = 0.98
# A split is certified (_split) when the coupling of the objective between
# its pieces is at most SECTOR_TOL * ||G|| (Frobenius norms). The
# symmetry tests and the eigenvalue grouping only propose sectors; they use
# the looser PROPOSAL_TOL, so that roundoff in a support projector does not
# hide a symmetry the check then certifies.
SECTOR_TOL = 1e-13
PROPOSAL_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """maximize tr[G X] over X >= 0 with tr_out[X] = identity on the input."""

    objective: np.ndarray  # Hermitian, on (input tensor output)
    dim_in: int
    dim_out: int

    @property
    def dim(self) -> int:
        return self.dim_in * self.dim_out


@dataclass(frozen=True, eq=False)
class SdpSolution:
    x: np.ndarray
    y: np.ndarray
    primal: float
    dual: float
    gap: float
    iterations: int


@dataclass(frozen=True, eq=False)
class ReductionEmbedding:
    """Isometries from the reduced spaces back into the full ones."""

    v_in: np.ndarray  # d_B x r_B, support of the channel output
    v_out: np.ndarray  # d_A x r_A, support of the source


@dataclass(frozen=True)
class BracketReport:
    f_opt: float
    f_petz: float
    f_opt_squared: float
    tol: float

    @property
    def holds(self) -> bool:
        return self.f_opt_squared - self.tol <= self.f_petz <= self.f_opt + self.tol


def build_fidelity_sdp(rho_a: DensityOperator, ch: KrausChannel) -> SdpProblem:
    """Objective matrix G with tr[Choi(D) G] = F_e(rho, D compose N) for CPTP D.

    By the Kraus-trace identity of :func:`~petzlab.decoders.fe_of_decoder`,
    F_e = sum_(l,k) |g_k^T vec(D_l^T)|^2 over the Choi vectors vec(D_l^T) and
    the rows g_k = vec(K_k rho), so G = g^dagger g; no purification is built.
    The identity needs a trace-preserving channel, so ``ch`` is checked to
    1e-9 (:class:`~petzlab.errors.NotTracePreserving` otherwise); G itself is
    held to the purified and the simulated fidelity by the test suite, not
    on each call.
    """
    if ch.dim_in != rho_a.dim:
        raise DimensionMismatch(f"channel input {ch.dim_in} != source dim {rho_a.dim}")
    validate_cptp(ch, tol=1e-9)
    d_b, d_a = ch.dim_out, ch.dim_in
    rows = (ch.kraus_ops @ rho_a.matrix).reshape(len(ch.kraus_ops), d_b * d_a)
    g = herm_part(dag(rows) @ rows)
    return SdpProblem(objective=g, dim_in=d_b, dim_out=d_a)


def reduce_problem(
    rho_a: DensityOperator, ch: KrausChannel
) -> tuple[SdpProblem, ReductionEmbedding]:
    """Fidelity SDP restricted to supp(N(rho)) on the input and supp(rho) on
    the output; the reduced optimum equals the full optimum."""
    (_, v_out), (_, v_in, _) = _spectra(rho_a, ch)
    rho_red = density_operator(dag(v_out) @ rho_a.matrix @ v_out)
    ch_red = KrausChannel(
        kraus_ops=dag(v_in) @ ch.kraus_ops @ v_out,
        dim_in=v_out.shape[1],
        dim_out=v_in.shape[1],
        label_in=ch.label_in,
        label_out=ch.label_out,
    )
    prob = build_fidelity_sdp(rho_red, ch_red)
    return prob, ReductionEmbedding(v_in=v_in, v_out=v_out)


def _nt_scaling(lx: np.ndarray, lz: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling points W with W Z W = X, one per matrix of the
    stack, from the Cholesky factors X = Lx Lx^dagger and Z = Lz Lz^dagger:
    with Lz^dagger Lx = U s V^dagger, W = Lx V s^-1 V^dagger Lx^dagger
    (Todd, Toh and Tutuncu, SIAM J. Optim. 8 (1998) 769). A real A A^T is
    formed by syrk and is exactly symmetric; a complex one is symmetrized."""
    _, s, vh = np.linalg.svd(dag(lz) @ lx)
    a = (lx @ dag(vh)) / np.sqrt(s)[..., None, :]
    w = a @ dag(a)
    return herm_part(w) if np.iscomplexobj(w) else w


def _step_lengths(l_inv: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Steps alpha <= 1, one per matrix S = L L^dagger of a stack given by
    its inverse factors l_inv = L^-1, that go STEP_FRACTION of the way to
    where S + alpha*dS stops being positive definite, which is at
    alpha = -1 / lambda_min(L^-1 dS L^-dagger)."""
    lam_min = np.linalg.eigvalsh(herm_part(l_inv @ ds @ dag(l_inv)))[..., 0]
    # 1 where lam_min >= -STEP_FRACTION, else -STEP_FRACTION / lam_min
    return STEP_FRACTION / np.maximum(-lam_min, STEP_FRACTION)


def _tr_out(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_b, d_a = dims
    return np.einsum("...iaja->...ij", m.reshape(m.shape[:-2] + (d_b, d_a, d_b, d_a)))


def _schur_matrix(w: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Matrix of Y -> tr_out[W (Y tensor 1) W] acting on vec(Y), for each W
    of the stack w (..., n, n)."""
    d_b, d_a = dims
    lead = w.shape[:-2]
    wt = w.reshape(lead + (d_b, d_a, d_b, d_a))
    m1 = wt.swapaxes(-3, -2).reshape(lead + (d_b * d_b, d_a * d_a))
    m2 = wt.swapaxes(-4, -1).reshape(lead + (d_a * d_a, d_b * d_b))
    p = (m1 @ m2).reshape(lead + (d_b,) * 4)
    return p.swapaxes(-3, -2).reshape(lead + (d_b * d_b, d_b * d_b))


def _schur_solve(lc: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lc vec(Y_k) = vec(H_k) for a stack of right-hand sides in one
    factorization, in the arithmetic of lc.

    ``lc`` is the matrix of a Hermitian-preserving map L on d x d matrices
    (:func:`_schur_matrix`) and ``rhs`` is k x d x d. L commutes with the
    adjoint, so the Hermitian part of a solution solves the Hermitian part
    of H_k: the solutions are returned as their Hermitian parts, which are
    exactly Hermitian, and an anti-Hermitian part of H_k is dropped. A stack
    of maps lc (..., n, n) takes a stack of right-hand sides (..., k, d, d).
    """
    lead, (k, d, _) = rhs.shape[:-3], rhs.shape[-3:]
    r = np.linalg.solve(lc, rhs.reshape(lead + (k, d * d)).swapaxes(-1, -2))
    return herm_part(r.swapaxes(-1, -2).reshape(lead + (k, d, d)))


def _objectives(problems: list[SdpProblem]) -> np.ndarray:
    """The Hermitian parts of the problems' objectives as one stack, in real
    (float64) arithmetic when its imaginary part is exactly 0. A non-finite
    objective raises :class:`NumericalBreakdown`."""
    g = herm_part(np.stack([prob.objective for prob in problems]))
    if not np.isfinite(g).all():
        raise NumericalBreakdown("non-finite objective")
    return g if g.imag.any() else g.real


def _solve_stack(problems: list[SdpProblem], tol: float) -> list[SdpSolution]:
    """Primal-dual path-following solve with NT scaling, of a stack of
    problems that share (dim_in, dim_out).

    Only the distinct objectives are iterated on (:func:`_interior_point`).
    A member whose objective G_i is within e <= SECTOR_TOL * ||G_r|| of
    M^dagger G_r M, for an earlier distinct member's G_r and a product
    unitary M = V tensor W (Frobenius norms; :func:`_copies`), is a copy of
    that representative. Its dual iterate is V^dagger Y V + e 1, dual
    feasible for G_i because G_i <= M^dagger G_r M + e 1, so its dual and
    its gap grow by d_in e. With M = 1 it takes the representative's X and
    primal value: X is feasible for G_i, and |tr[(G_i - G_r) X]| <=
    e tr X = d_in e. Otherwise it takes X_i = M^dagger X M, feasible since
    tr_out X_i = V^dagger (tr_out X) V, and reports tr[G_i X_i] as its
    primal, with its gap the difference of its dual and primal (in real
    arithmetic, X_i and Y_i are the real parts, feasible for a real G_i as
    well). A copy keeps its representative's iteration count. The solutions
    come back in the order of ``problems``. A non-finite objective raises
    :class:`NumericalBreakdown` before any member is compared or solved. A
    stack whose imaginary part is exactly 0 is solved in real arithmetic
    (:func:`_objectives`).
    """
    d_b, d_a = problems[0].dim_in, problems[0].dim_out
    g = _objectives(problems)
    copies = _copies(g, (d_b, d_a))
    distinct = [i for i, (r, _, _) in enumerate(copies) if r == i]
    solved = dict(zip(distinct, _interior_point(g[distinct], (d_b, d_a), tol)))
    moved = [i for i, (_, vw, _) in enumerate(copies) if vw is not None]
    if moved:  # the copies with M != 1, conjugated as one stack
        v, w = (np.stack([copies[i][1][f] for i in moved]) for f in (0, 1))
        m = _products(v, w)
        x = herm_part(dag(m) @ np.stack([solved[copies[i][0]].x for i in moved]) @ m)
        y = herm_part(dag(v) @ np.stack([solved[copies[i][0]].y for i in moved]) @ v)
        if not np.iscomplexobj(g):
            x, y = x.real, y.real
        primal = np.einsum("kij,kji->k", g[moved], x).real.tolist()
        conjugated = dict(zip(moved, zip(x, y, primal)))
    solutions = []
    for i, (r, vw, diff) in enumerate(copies):
        sol = solved[r]
        if r != i:
            shift = d_b * diff
            if vw is None:
                y = sol.y + diff * np.eye(d_b)
                sol = replace(sol, y=y, dual=sol.dual + shift, gap=sol.gap + shift)
            else:
                x, y, primal = conjugated[i]
                dual = sol.dual + shift
                y = y + diff * np.eye(d_b)
                sol = replace(sol, x=x, y=y, primal=primal, dual=dual, gap=dual - primal)
        solutions.append(sol)
    return solutions


def _copies(g: np.ndarray, dims: tuple[int, int]) -> list[tuple[int, tuple | None, float]]:
    """Each member's (r, (V, W), e) in the stack g: its representative r,
    the product unitary M = V tensor W of the copy (None for M = 1) and a
    bound e >= ||G_i - M^dagger G_r M|| (Frobenius norms). A representative
    has (i, None, 0.0).

    Member i is a copy of an earlier distinct member r when
    e <= SECTOR_TOL * ||G_r||. M = 1 is tried first, against every distinct
    member in order, with e = ||G_i - G_r||. Then a member i left distinct
    becomes a copy of an earlier one r with M != 1, tried only where the
    norms agree to SECTOR_TOL * ||G_r|| (conjugation keeps norms), when
    e = ||G_i - M^dagger G_r M|| <= SECTOR_TOL * ||G_r||. The M = 1 copies of
    i then follow it to r with the same M, their differences added to e,
    and i is taken only if they all stay within the bound. Two proposals,
    in turn:

    - V diagonal and W = 1, the sign or phase of each basis vector of a
      piece being an arbitrary choice of the eigensolver that made it: in
      the gauge of :func:`_phase_gauge` such an M is 1, and e is the
      distance of the gauged objectives plus their rounding;
    - for dim_out = 2, the search of :func:`_propose_products`, against the
      members whose sorted eigenvalues agree with G_i's to
      SECTOR_TOL * ||G_r|| (one stacked eigvalsh) and only between Pauli
      Gram blocks with a simple spectrum (:func:`_pauli_frames`), each
      proposal checked directly; one that fails to factor proposes
      nothing.
    """
    d_b, d_a = dims
    norms = np.linalg.norm(g, axis=(-2, -1))
    bounds = SECTOR_TOL * norms
    copies: list[tuple[int, tuple | None, float]] = []
    distinct: list[int] = []
    for i in range(len(g)):
        for r in distinct:
            diff = float(np.linalg.norm(g[i] - g[r]))
            if diff <= bounds[r]:
                copies.append((r, None, diff))
                break
        else:
            distinct.append(i)
            copies.append((i, None, 0.0))
    if len(distinct) < 2:
        return copies

    # conjugation keeps norms: only members whose norms agree can be copies
    near = (np.abs(norms[distinct, None] - norms[distinct]) <= bounds[distinct, None]).tolist()
    if not any(near[a][b] for b in range(len(distinct)) for a in range(b)):
        return copies
    slack = dict.fromkeys(distinct, 0.0)  # the largest e of each member's M = 1 copies
    for r, _, e in copies:
        slack[r] = max(slack[r], e)
    gauged, phases = _phase_gauge(g[distinct], norms[distinct], dims)
    # ||G_i - M^dagger G_r M|| in the gauge, where M is 1, plus the rounding
    # of the two gauged objectives (none on a real stack: signs only)
    rounding = 8 * np.finfo(float).eps * norms[distinct] * np.iscomplexobj(g)
    apart = (np.linalg.norm(gauged[:, None] - gauged, axis=(2, 3)) + rounding + rounding[:, None])
    apart = apart.tolist()
    spectra = frames = None

    def check(i, r, proposals):
        for v, w in proposals:
            m = _products(v[None], w[None])[0]
            diff = float(np.linalg.norm(g[i] - dag(m) @ g[r] @ m))
            if diff + slack[i] <= bounds[r]:
                return r, (v, w), diff
        return None

    def match(b, reps):
        i = distinct[b]
        for a in reps:
            if apart[a][b] + slack[i] <= bounds[distinct[a]]:
                v = np.diag(phases[a].conj() * phases[b])
                return distinct[a], (v, np.eye(d_a)), apart[a][b]
        nonlocal spectra, frames
        if d_a != 2 or not reps:
            return None
        if frames is None:
            spectra = np.linalg.eigvalsh(g[distinct])
            frames = _pauli_frames(g[distinct], d_b)
        paulis, simple = frames
        agree = np.abs(spectra[reps] - spectra[b]).max(axis=1) <= bounds[distinct][reps]
        for a in [a for a, ok in zip(reps, agree) if ok and simple[a] and simple[b]]:
            try:
                if found := check(i, distinct[a], _propose_products(paulis[[a, b]], d_b)):
                    return found
            except np.linalg.LinAlgError:
                continue
        return None

    kept = [0]
    for b in range(1, len(distinct)):
        found = match(b, [a for a in kept if near[a][b]])
        if found is None:
            kept.append(b)
            continue
        r, vw, e = found
        i = distinct[b]
        copies = [(r, vw, e + d) if rep == i else (rep, m, d) for rep, m, d in copies]
    return copies


def _products(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Kronecker products V_k tensor W_k of two stacks, as one stack."""
    k, d_b, d_a = len(v), v.shape[-1], w.shape[-1]
    return (v[:, :, None, :, None] * w[:, None, :, None, :]).reshape(k, d_b * d_a, d_b * d_a)


def _phase_gauge(
    g: np.ndarray, norms: np.ndarray, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The stack g with each member's input in a gauge of its basis phases:
    F G F^dagger with F = diag(f) tensor 1, and the phases f (k x d_b).

    Under G -> (D tensor 1)^dagger G (D tensor 1) for a diagonal unitary D,
    C = sum_ab w_ab G_ab (over the output indices, fixed and generic w) and
    every power of A = ||G|| 1 + C (``norms``) go to D^dagger . D. So f_j,
    the phase of (A^m)_0j, goes to conj(d_0) d_j f_j, and F G F^dagger is
    unchanged. With m >= d_b - 1 that entry is nonzero, but for a
    cancellation, for every input that the blocks of G connect to input 0,
    and f_j is 1 where it is 0 (the zero padding of :func:`_pad_input`). So
    two members whose gauged objectives agree are copies with
    V = diag(conj(f_r) f_i) and W = 1. The phases are signs on a real stack,
    and then the gauge is exact.
    """
    d_b, d_a = dims
    g4 = g.reshape(len(g), d_b, d_a, d_b, d_a)
    c = np.einsum("kiajb,ab->kij", g4, np.cos(np.arange(1, d_a * d_a + 1)).reshape(d_a, d_a))
    a = c + norms[:, None, None] * np.eye(d_b)
    for _ in range((d_b - 2).bit_length()):  # to the power 2^s >= d_b - 1
        a = a @ a
    row = a[:, 0]
    f = np.divide(row, np.abs(row), out=np.ones_like(row), where=row != 0)
    gauged = f[:, :, None, None, None] * g4 * f.conj()[:, None, None, :, None]
    return gauged.reshape(g.shape), f


# The output Paulis sigma_0 = 1, sigma_x, sigma_y, sigma_z.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_frames(g: np.ndarray, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """For each member of the stack g with a two-dimensional output: its
    output-Pauli components H_mu (k x 4 x d_b x d_b), with
    G = sum_mu H_mu tensor sigma_mu, and whether its Pauli Gram block
    tr(H_mu H_nu) (mu, nu = x, y, z) has a simple spectrum, its eigenvalues
    apart by more than PROPOSAL_TOL of the largest. Only then do the
    eigenbases of two such blocks fix the rotation between them up to signs
    (:func:`_propose_products`). Eigenvalues only: one stacked eigvalsh."""
    h = np.einsum("kiajb,mba->kmij", g.reshape(len(g), d_b, 2, d_b, 2), _PAULI) / 2
    lam = np.linalg.eigvalsh(np.einsum("kmij,knji->kmn", h[:, 1:], h[:, 1:]).real)
    return h, np.diff(lam, axis=1).min(axis=1) > PROPOSAL_TOL * lam[:, -1]


def _propose_products(h: np.ndarray, d_b: int):
    """Proposed product unitaries (V, W), V on the input (d_b) and W on a
    two-dimensional output, with G_i = (V tensor W)^dagger G_r (V tensor W),
    most likely first, from the output-Pauli components h (2 x 4 x d_b x d_b)
    of G_r and G_i (:func:`_pauli_frames`). Only proposes: :func:`_copies`
    checks each.

    With G = sum_mu H_mu tensor sigma_mu over the output Paulis, V leaves
    the Gram matrix tr(H_mu H_nu) fixed and W rotates its Pauli block
    (mu, nu = x, y, z) by the R in SO(3) with
    W^dagger sigma_mu W = tau_mu = sum_nu R_mu,nu sigma_nu. So R = Q_r S Q_i^T,
    with Q_r and Q_i eigenbases of the two Pauli blocks and S = diag(s) a
    sign matrix, four choices with det R = 1. In the eigenbases,
    G = sum_l h_l tensor t_l with h_l = sum_mu Q_mu,l H_mu (Q extended by 1
    on sigma_0), and V must carry s_l h_l of G_r to h_l of G_i, so V also
    carries the generic combination sum_l c_l s_l h_l of G_r to that of
    G_i. A choice whose combinations differ in spectrum (by more than
    PROPOSAL_TOL of the largest eigenvalue) is dropped, and the others are
    tried in the order of that difference. For each,
    sum_mu tau_mu X sigma_mu = 2 tr(W X) W^dagger gives W from the Pauli X
    with the largest such sum, and V comes from the two eigenbases
    (:func:`_intertwiner`) on the inputs up to the last one where either
    objective is nonzero, and is the identity on the rest (the zero padding
    of :func:`_pad_input` comes after a piece's inputs).
    """
    k = 1 + np.flatnonzero((h != 0).any(axis=(0, 1, 3)))[-1]  # the padding comes last
    h = h[:, :, :k, :k]
    q = np.repeat(np.eye(4)[None], 2, axis=0)
    q[:, 1:, 1:] = np.linalg.eigh(np.einsum("smij,snji->smn", h[:, 1:], h[:, 1:]).real)[1]
    h = np.einsum("sml,smij->slij", q, h)
    signs = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    signs[:, 1] *= int(np.sign(np.prod(np.linalg.det(q))))
    c = np.cos(np.arange(1, 5))  # fixed and generic
    combos = np.einsum("kl,lij->kij", c * signs, h[0])  # one per sign choice
    lam, u = np.linalg.eigh(np.concatenate([combos, np.einsum("l,lij->ij", c, h[1])[None]]))
    mismatch = np.abs(lam[:4] - lam[4]).max(axis=1)
    for choice in np.argsort(mismatch):
        if mismatch[choice] > PROPOSAL_TOL * np.abs(lam[4]).max():
            return
        s = signs[choice]
        tau = np.einsum("ml,nl,nij->mij", q[0] * s, q[1], _PAULI)
        sums = np.einsum("mij,xjk,mkl->xil", tau, _PAULI, _PAULI)
        norms = np.linalg.norm(sums, axis=(1, 2))
        w = dag(sums[norms.argmax()]) * (np.sqrt(2) / norms.max())
        v = np.eye(d_b, dtype=np.complex128)
        v[:k, :k] = _intertwiner(u[choice], u[4], s[:, None, None] * h[0], h[1])
        yield v, w


def _intertwiner(u_a: np.ndarray, u_b: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A unitary X with a_k X = X b_k for stacks a, b (k, d, d), given
    eigenbases U_a and U_b of one generic combination of the a_k and of the
    same combination of the b_k, if that combination has a simple spectrum.

    Then X maps U_b to U_a up to phases: X = U_a D U_b^dagger with D
    diagonal and unitary, and B_k = D^dagger C_k D for
    C_k = U_a^dagger a_k U_a and B_k = U_b^dagger b_k U_b. So the Hermitian
    N = sum_k conj(C_k) * B_k (entrywise) is D^dagger P D with
    P = sum_k |C_k|^2 entrywise, whose top eigenvector is positive (Perron,
    for a connected P), and D is the conjugate of the phases of N's top
    eigenvector.
    """
    pair = np.stack([u_a, u_b])
    rot = dag(pair)[:, None] @ np.stack([a, b]) @ pair[:, None]
    top = np.linalg.eigh(np.einsum("kjl,kjl->jl", rot[0].conj(), rot[1]))[1][:, -1]
    return (u_a * np.exp(-1j * np.angle(top))) @ dag(u_b)


def _interior_point(g: np.ndarray, dims: tuple[int, int], tol: float) -> list[SdpSolution]:
    """The interior-point run of :func:`_solve_stack` on the stack of
    Hermitian objectives g (k x n x n), one solution per member. The
    iterates take the dtype of g, so a real g (float64) is solved in real
    arithmetic throughout and gives real x and y.

    The start is X = 1/d_out and Y = (||G||_2 + 1) 1. The predictor
    (affine) step sets the centering weight via Mehrotra's heuristic
    sigma = (mu_aff/mu)^3; the combined step recenters. The Newton system is
    eliminated down to a Hermitian positive definite Schur complement on the
    input system. Its solution is linear in the complementarity residual
    r_c, and the corrector's r_c = sigma mu Z^-1 - X is the predictor's plus
    sigma mu Z^-1, so each iteration factors the Schur matrix once, in the
    objective's own arithmetic (:func:`_schur_solve`), for the two
    right-hand sides tr_out[W r_d W - X] - r_p and tr_out[Z^-1].

    Each iteration factors the stack [X; Z] by Cholesky and inverts the
    factors once; the NT scaling point W (:func:`_nt_scaling`, one SVD;
    Todd, Toh and Tutuncu 1998), Z^-1 = Lz^-dagger Lz^-1 and the predictor's
    and the corrector's step lengths (:func:`_step_lengths`) share them.
    That is six LAPACK calls per stepping iteration: cholesky, inv, svd,
    eigvalsh twice and solve. Between them the loop keeps its numpy calls
    few: norms, mu, the primal and the dual are einsum contractions (the
    convergence test compares squared norms), Y tensor 1 is one broadcast
    product with a precomputed factor, and on a real stack the exactly
    symmetric products Lz^-T Lz^-1 and W (formed by syrk) are not
    symmetrized again.

    Every step acts on the whole stack at once (k x n x n arrays), but each
    member has its own mu, sigma, step lengths and convergence test. A
    member that converges is recorded and leaves the stack, so its iterates
    and iteration count are those of a solve on its own. A failure of any
    member (a non-finite iterate, a lost Cholesky factorization, a failed
    SVD, no convergence within MAX_ITER) fails the whole stack with
    :class:`NumericalBreakdown` or :class:`MaxIterations`.
    """
    d_b, d_a = dims
    n = d_b * d_a
    complex_stack = np.iscomplexobj(g)
    eye_b = np.eye(d_b)
    one_a = np.eye(d_a)[:, None, :]  # m tensor 1 = m[:, :, None, :, None] * one_a

    def tensor_eye(m):
        return (m[:, :, None, :, None] * one_a).reshape(len(m), n, n)

    def inner(a, b):  # Re tr[a^dagger b] of each member
        return np.einsum("kij,kij->k", a.conj(), b).real

    x = np.repeat(np.eye(n, dtype=g.dtype)[None] / d_a, len(g), axis=0)
    y = (np.linalg.norm(g, 2, axis=(-2, -1)) + 1.0)[:, None, None] * eye_b.astype(g.dtype)
    z = tensor_eye(y) - g

    feas_tol = 0.1 * tol
    rd_tol = (feas_tol * (1.0 + np.sqrt(inner(g, g)))) ** 2  # squared, per member
    members = list(range(len(g)))  # index in g of each stack row
    solutions: list[SdpSolution] = [None] * len(g)

    # x, y, z, the residual r_d and the steps dy and dz are exactly Hermitian:
    # each is a real combination of exactly Hermitian matrices, so only the
    # products with W need herm_part.
    for it in range(1, MAX_ITER + 1):
        r_p = eye_b - _tr_out(x, dims)
        r_d = tensor_eye(y) - g - z
        mu = inner(x, z) / n
        primal = np.einsum("kij,kji->k", g, x).real
        dual = np.einsum("kii->k", y).real
        gap = dual - primal
        done = (
            (inner(r_p, r_p) <= feas_tol**2)
            & (inner(r_d, r_d) <= rd_tol)
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
            g, x, y, z, r_p, r_d, mu, rd_tol = (
                a[stay] for a in (g, x, y, z, r_p, r_d, mu, rd_tol)
            )

        try:
            k = len(x)
            chol = np.linalg.cholesky(np.concatenate([x, z]))
            chol_inv = np.linalg.inv(chol)
            w = _nt_scaling(chol[:k], chol[k:])
            z_inv = dag(chol_inv[k:]) @ chol_inv[k:]
            if complex_stack:
                z_inv = herm_part(z_inv)
            rhs = _tr_out(np.stack([w @ r_d @ w - x, z_inv], axis=1), dims)
            rhs[:, 0] -= r_p
            dy = _schur_solve(_schur_matrix(w, dims), rhs)
            dy_aff, dy_cen = dy[:, 0], dy[:, 1]

            def direction(r_c, dy):
                dz = tensor_eye(dy) - r_d
                return herm_part(r_c - w @ dz @ w), dy, dz

            # the primal and the dual step lengths of every member in one call
            def steps(dx, dz):
                alpha = _step_lengths(chol_inv, np.concatenate([dx, dz]))[:, None, None]
                return alpha[:k], alpha[k:]

            dx_a, _, dz_a = direction(-x, dy_aff)
            ap, ad = steps(dx_a, dz_a)
            mu_aff = inner(x + ap * dx_a, z + ad * dz_a) / n
            sigma = np.minimum(np.maximum((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0)
            smu = (sigma * mu)[:, None, None]

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


def solve_sdp(prob: SdpProblem, tol: float = 1e-7) -> SdpSolution:
    """Primal-dual path-following solve with NT scaling: :func:`_solve_stack`
    on a stack of one, the loop that also solves the padded sector stack of
    :func:`_solve_sectors` (there each member at tol/K, leaving the stack
    when it converges)."""
    return _solve_stack([prob], tol)[0]


def _stabilizers(rho: np.ndarray, pi_b: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """The qubit permutations P other than 1 with P rho P^dagger = rho and
    P pi_b P^dagger = pi_b, each to PROPOSAL_TOL in Frobenius norm, as pairs
    (j, idx) of the enumeration index j >= 1 of P in
    itertools.permutations(range(n)) and its row indices, (P v)[i] = v[idx[i]].

    P moves qubit perm[k] to position k, so idx[i] = sum_k b_k 2^(n-1-perm[k])
    over the bits b of i, and P m P^dagger = m[idx][:, idx]; the table of
    idx has one row per permutation and is built once. A probe prefilter
    on rho runs first: for a fixed vector x,
    ||rho P x - P rho x|| = ||(rho - P rho P^dagger) P x||, so a P that fixes
    rho passes ||rho P x - P rho x|| <= PROPOSAL_TOL ||x||, and the
    (n! x 2^n) arrays of P x and P rho x decide it for every P at once. The
    survivors are then confirmed on rho and pi_b.
    """
    d = 2**n
    x = np.cos(np.arange(1, d + 1))  # fixed and generic
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    place = 2 ** np.arange(n - 1, -1, -1)
    perms = np.array(list(itertools.permutations(range(n))))[1:]  # j = 0 is the identity
    table = place[perms] @ bits.T
    resid = np.linalg.norm(x[table] @ rho.T - (rho @ x)[table], axis=1)
    return [
        (int(j) + 1, table[j])
        for j in np.flatnonzero(resid <= PROPOSAL_TOL * np.linalg.norm(x))
        if all(np.linalg.norm(m[table[j]][:, table[j]] - m) <= PROPOSAL_TOL for m in (rho, pi_b))
    ]


def _sector_bases(rho_a: DensityOperator, v_in: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases, in the reduced input basis v_in, of the proposed sectors.

    For d_A = d_B = 2^n, every qubit permutation P with P rho P^dagger = rho
    that maps the support projector v_in v_in^dagger of sigma_B to itself
    (brute force over the n! permutations, :func:`_stabilizers`) gives
    Q_P = v_in^dagger P v_in, with the rows of v_in gathered by P. With the
    fixed coefficients c_P = 1/j over the permutations in enumeration order,
    a = sum_P c_P Q_P, and the sectors are the eigenspaces of its Hermitian
    part h = a + a^dagger. A G that commutes with every Q_P tensor 1
    commutes with h tensor 1 and so preserves these eigenspaces;
    :func:`_sector_problems` checks that it does. One sector when the
    dimensions are not 2^n or no permutation qualifies.

    Sectors of one width that carry the same irrep are aligned: for sector i
    and an earlier representative r of its width, M = V_i^dagger a V_r is a
    nonzero multiple of a unitary when both carry the same irrep (and 0 when
    they carry different ones), and V_i <- V_i polar(M) then makes
    V_i^dagger G V_i = V_r^dagger G V_r for every G in the commutant.
    Alignment only proposes; :func:`_solve_stack` compares the objectives.
    """
    d, r_b = rho_a.dim, v_in.shape[1]
    n = d.bit_length() - 1
    if v_in.shape[0] != d or d != 2**n:
        return [np.eye(r_b)]
    qs = [(j, dag(v_in) @ v_in[idx]) for j, idx in _stabilizers(rho_a.matrix, v_in @ dag(v_in), n)]
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


def _sector_problems(rho_a: DensityOperator, ch: KrausChannel) -> list[SdpProblem]:
    """The reduced fidelity SDP (:func:`reduce_problem`) as independent sector
    problems, or as [the reduced problem] when no split is certified.

    The permutations propose the sectors (:func:`_sector_bases`), one label
    per sector on the basis vectors of their concatenated bases V, and
    :func:`_split` certifies and cuts them: sector k has the objective
    G_k = B_k^dagger G B_k with B_k = V_k tensor 1_A.
    """
    prob, emb = reduce_problem(rho_a, ch)
    bases = _sector_bases(rho_a, emb.v_in)
    labels = np.repeat(np.arange(len(bases)), [v.shape[1] for v in bases])
    return _split(prob, prob.objective, np.concatenate(bases, axis=1), labels)


def _refine_sectors(problems: list[SdpProblem]) -> list[SdpProblem]:
    """Each sector problem split into the pieces of its objective's block
    algebra where that split is certified, else kept whole (the same object).

    With G_k = sum_ab G_ab tensor |a><b| over the output indices a, b, a
    split of the input into orthogonal subspaces that block-diagonalizes
    every G_ab is a split of the sector, by the pinching argument of the
    module docstring. The algebra proposes the pieces
    (:func:`_propose_pieces`) and :func:`_split` certifies and cuts them, as
    it does the permutation sectors. A sector within SECTOR_TOL of an
    earlier one of its shape (the aligned copies of :func:`_sector_bases`)
    reuses that sector's proposal, so that its pieces stay copies for
    :func:`_solve_stack`. A non-finite objective raises
    :class:`NumericalBreakdown` (:func:`_objectives`).

    A list of one problem, a reduced problem that no certified permutation
    split broke up, is returned as it is: it is solved whole.
    """
    if len(problems) == 1:
        return problems
    refined: list[SdpProblem] = []
    proposals: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (G_r, v, labels)
    for prob in problems:
        if prob.dim_in == 1:
            refined.append(prob)
            continue
        g = _objectives([prob])[0]
        for g_r, v, labels in proposals:
            if g_r.shape == g.shape and np.linalg.norm(g - g_r) <= SECTOR_TOL * np.linalg.norm(g_r):
                break
        else:
            d_b, d_a = prob.dim_in, prob.dim_out
            v, labels = _propose_pieces(g.reshape(d_b, d_a, d_b, d_a), np.linalg.norm(g))
            proposals.append((g, v, labels))
        refined += _split(prob, g, v, labels)
    return refined


def _split(prob: SdpProblem, g: np.ndarray, v: np.ndarray, labels: np.ndarray) -> list[SdpProblem]:
    """``prob`` cut into the pieces that ``labels`` proposes on the basis
    vectors of its input, or [prob] (the same object) when the split is
    not certified.

    g is prob's objective, its input is rotated into the orthonormal basis v
    (:func:`_rotated`), and the piece of label k has the objective
    (V_k tensor 1)^dagger G (V_k tensor 1) over the columns V_k of v with
    that label, the pieces in label order. The split is certified when the
    coupling of G between basis vectors of different labels is at most
    SECTOR_TOL * ||G|| (Frobenius norms); one label is no split.
    """
    if not labels.any():
        return [prob]
    d_b, d_a = prob.dim_in, prob.dim_out
    rot = _rotated(g.reshape(d_b, d_a, d_b, d_a), v)
    coupling = rot.transpose(0, 2, 1, 3)[labels[:, None] != labels]
    if np.linalg.norm(coupling) > SECTOR_TOL * np.linalg.norm(g):
        return [prob]
    pieces = []
    for label in range(labels.max() + 1):
        idx = np.flatnonzero(labels == label)
        n = len(idx) * d_a
        piece = rot[idx][:, :, idx].reshape(n, n)
        pieces.append(SdpProblem(objective=piece, dim_in=len(idx), dim_out=d_a))
    return pieces


def _propose_pieces(g4: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """A basis v of the input of the objective g4 (d_b, d_a, d_b, d_a) and
    the label 0, 1, ... of the proposed piece of each basis vector.

    h = sum_ab c_ab (G_ab + G_ba), with fixed and generic c_ab, is a
    Hermitian element of the algebra the G_ab generate, so its eigenbasis v
    block-diagonalizes every G_ab on the blocks of that algebra whose
    eigenvalues of h differ (Murota, Kanno, Kojima and Kojima, Japan J.
    Indust. Appl. Math. 27 (2010) 125). The pieces are the connected
    components of the graph on the basis vectors with an edge (i, j) where
    some |(v^dagger G_ab v)_ij| exceeds SECTOR_TOL * norm. If eigh fails,
    the one piece is proposed.
    """
    d_b, d_a = g4.shape[:2]
    c = np.cos(np.arange(1, d_a * d_a + 1)).reshape(d_a, d_a)  # fixed and generic
    try:
        v = np.linalg.eigh(np.einsum("ab,iajb->ij", c + c.T, g4))[1]
    except np.linalg.LinAlgError:
        return np.eye(d_b), np.zeros(d_b, dtype=int)
    reach = (np.abs(_rotated(g4, v)) > SECTOR_TOL * norm).any(axis=(1, 3)) | np.eye(d_b, dtype=bool)
    while ((wider := reach @ reach) != reach).any():  # transitive closure
        reach = wider
    root = reach.argmax(axis=1)  # the smallest index of each vector's component
    return v, np.cumsum(root == np.arange(d_b))[root] - 1


def _rotated(g4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The objective g4 (d_b, d_a, d_b, d_a) with its input in the basis v,
    (v tensor 1)^dagger G (v tensor 1), in the same layout."""
    left = (dag(v) @ g4.reshape(len(v), -1)).reshape(g4.shape)
    return (left.swapaxes(2, 3) @ v).swapaxes(2, 3)


def _solve_one_wide(prob: SdpProblem) -> tuple[float, float]:
    """The optimum and its gap of one problem with dim_in = 1
    (:func:`_solve_one_wide_stack`)."""
    return _solve_one_wide_stack([prob])[0]


def _solve_one_wide_stack(problems: list[SdpProblem]) -> list[tuple[float, float]]:
    """The optimum and its gap of each problem with dim_in = 1 of a stack
    that shares dim_out, in closed form.

    With a one-dimensional input, tr_out X = 1 makes X a density matrix on
    the output, so the optimum is lambda_max(G): X = v v^dagger for a top
    eigenvector v attains it, and y = lambda_max is dual feasible. The stack
    takes one eigvalsh of the Hermitian parts of its objectives, in real
    arithmetic when their imaginary part is exactly 0 (:func:`_objectives`).

    LAPACK's symmetric eigensolvers are backward stable: a computed
    eigenvalue is an exact one of G + E with ||E||_2 <= p(n) eps ||G||_2 for
    a modestly growing p(n) (LAPACK Users' Guide, section 4.7), so by Weyl's
    inequality it is within that of the optimum. The gap is this bound with
    p(n) = 4 n^2 (n = dim_out) and ||G||_F >= ||G||_2; against 40-digit
    eigenvalues of random problems 2 to 4 wide the error reached a quarter
    of it. A non-finite objective raises :class:`NumericalBreakdown`, as in
    :func:`_solve_stack`.
    """
    g = _objectives(problems)
    bounds = 4 * problems[0].dim_out ** 2 * np.finfo(float).eps * np.linalg.norm(g, axis=(-2, -1))
    return list(zip(np.linalg.eigvalsh(g)[:, -1].tolist(), bounds.tolist()))


def _pad_input(prob: SdpProblem, dim_in: int) -> SdpProblem:
    """``prob`` on an input widened to ``dim_in`` by a block of zero objective.

    The padded problem has prob's optimum: the block X_k of a feasible X on
    prob's input is feasible for prob with the same objective value, and the
    direct sum of a feasible X_k and 1/dim_out on the pad is feasible for
    the padded problem with the same value. A dual Y_k of prob extends by 0
    on the pad to a dual of the padded problem with the same value."""
    d_b, d_a = prob.dim_in, prob.dim_out
    g = np.zeros((dim_in, d_a, dim_in, d_a), dtype=prob.objective.dtype)
    g[:d_b, :, :d_b] = prob.objective.reshape(d_b, d_a, d_b, d_a)
    n = dim_in * d_a
    return SdpProblem(objective=g.reshape(n, n), dim_in=dim_in, dim_out=d_a)


def _by_dim_out(problems: list[SdpProblem]) -> list[list[SdpProblem]]:
    """The problems grouped by dim_out, in order of first appearance."""
    widths = dict.fromkeys(prob.dim_out for prob in problems)
    return [[prob for prob in problems if prob.dim_out == d_a] for d_a in widths]


def _solve_sectors(problems: list[SdpProblem], tol: float) -> tuple[float, float]:
    """The optimum and its certified gap, summed over the sector problems
    (the permutation sectors, or their pieces from :func:`_refine_sectors`).

    The sectors with dim_in = 1 of one dim_out are solved in closed form
    from one stacked eigvalsh (:func:`_solve_one_wide_stack`), with gaps at
    roundoff. The wider sectors of one dim_out (every sector of a split
    shares r_A) are zero-padded to the widest input among them
    (:func:`_pad_input`, which keeps each optimum) and solved as one stacked
    run of :func:`_solve_stack`, in which every member converges on its own
    and leaves the stack; its primal, dual and gap certify its sector. A
    copy in that run widens its gap by the padded width times the difference
    of objectives, which holds since every padded feasible X has that trace.
    A failure of any member fails the sum. Each of the K sectors is solved at
    tol/K, and K counts the closed-form sectors too. The summed gap then
    obeys the whole problem's convergence rule,
    sum |gap_k| <= (tol/K) sum (1 + p_k) <= tol (1 + F) because every
    p_k >= 0, and the sector residuals add in quadrature to below
    0.1 tol / sqrt(K).
    """
    terms = []
    for stack in _by_dim_out([prob for prob in problems if prob.dim_in == 1]):
        terms += _solve_one_wide_stack(stack)
    for stack in _by_dim_out([prob for prob in problems if prob.dim_in > 1]):
        width = max(prob.dim_in for prob in stack)
        padded = [_pad_input(prob, width) for prob in stack]
        terms += [(s.primal, s.gap) for s in _solve_stack(padded, tol / len(problems))]
    return sum(p for p, _ in terms), sum(gap for _, gap in terms)


def optimal_fidelity(rho_a: DensityOperator, ch: KrausChannel, tol: float = 1e-7) -> float:
    """Maximal achievable entanglement fidelity: the reduced SDP, solved
    sector by sector where a qubit-permutation split of it is certified, and
    each sector piece by piece where a split into the blocks of its
    objective's algebra is certified (:func:`_refine_sectors`; see the module
    docstring), else whole.

    The pieces (or a whole reduced problem) with a one-dimensional input are
    solved in closed form as lambda_max of their objectives, from one
    stacked eigvalsh with gaps at its roundoff; the others are zero-padded
    to the widest of them and solved in one stacked interior-point run, each
    at tol/K, where K counts every piece, the closed-form ones included
    (:func:`_solve_sectors`)."""
    return _solve_sectors(_refine_sectors(_sector_problems(rho_a, ch)), tol)[0]


def bk_bracket_check(
    rho_a: DensityOperator, ch: KrausChannel, tol: float = 1e-6
) -> BracketReport:
    """Assert the near-optimality bracket F_opt^2 <= F_petz <= F_opt."""
    f_opt = optimal_fidelity(rho_a, ch, tol=min(1e-7, tol / 10))
    pur = purify(rho_a)
    sigma_rb = channel_on_purification(pur, ch)
    f_petz = fe_closed_form(sigma_rb, "petz")
    report = BracketReport(f_opt=f_opt, f_petz=f_petz, f_opt_squared=f_opt**2, tol=tol)
    if not report.holds:
        raise BracketViolated(
            f"bracket failed: {report.f_opt_squared:.12g} <= {f_petz:.12g} "
            f"<= {f_opt:.12g} (tol {tol:g})"
        )
    return report
