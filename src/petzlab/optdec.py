"""Optimal-decoder fidelity by a dense primal-dual interior-point SDP.

The maximal achievable entanglement fidelity over all CPTP decoders is the
value of

    maximize  tr[G X]   subject to   tr_out[X] = 1_in,  X >= 0,

where X ranges over Choi matrices of decoders (input factor first) and G
encodes the entanglement fidelity as a linear functional. The dual is
minimize tr[Y] subject to Y tensor 1_out >= G. Problems are reduced to the
supports of the channel output and the source before solving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoders import Decoder, _spectra, fe_closed_form, fe_of_decoder
from .errors import BracketViolated, MaxIterations, NumericalBreakdown
from .matcore import dag, herm_eig, herm_part, kron, partial_trace
from .quantum import (
    DensityOperator,
    KrausChannel,
    channel_on_purification,
    choi_of_channel,
    density_operator,
    purify,
    validate_cptp,
)

VALIDATION_SAMPLES = 20
VALIDATION_TOL = 1e-9


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


def _random_cptp(rng: np.random.Generator, d_in: int, d_out: int, n_kraus: int) -> KrausChannel:
    n_kraus = max(n_kraus, -(-d_in // d_out))  # need d_out * n_kraus >= d_in
    g = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q = np.linalg.qr(g)[0][:, :d_in]
    ops = q.reshape(n_kraus, d_out, d_in)
    return KrausChannel(
        kraus_ops=tuple(ops), dim_in=d_in, dim_out=d_out, label_in="B", label_out="A"
    )


def build_fidelity_sdp(
    rho_a: DensityOperator, ch: KrausChannel, validate: bool = True
) -> SdpProblem:
    """Objective matrix G with tr[Choi(D) G] = F_e(rho, D compose N) for CPTP D.

    Before use the functional is validated against direct simulation on a
    deterministic set of random CPTP decoders.
    """
    pur = purify(rho_a)
    sigma_rb = channel_on_purification(pur, ch)
    d_r, d_b = sigma_rb.dims
    d_a = rho_a.dim
    psi = pur.vector.reshape(d_r, d_a)
    sig4 = sigma_rb.matrix.reshape(d_r, d_b, d_r, d_b)
    h = np.einsum("ra,rbsc,sd->bacd", psi.conj(), sig4, psi, optimize=True)
    g = herm_part(h.reshape(d_b * d_a, d_b * d_a).T)
    prob = SdpProblem(objective=g, dim_in=d_b, dim_out=d_a)
    if validate:
        rng = np.random.default_rng(20240718)
        for _ in range(VALIDATION_SAMPLES):
            dec = Decoder(channel=_random_cptp(rng, d_b, d_a, 2), kind="custom")
            lhs = float(np.trace(choi_of_channel(dec.channel) @ g).real)
            rhs = fe_of_decoder(rho_a, ch, dec)
            if abs(lhs - rhs) > VALIDATION_TOL:
                raise NumericalBreakdown(
                    f"objective validation failed: {lhs:.12g} vs {rhs:.12g}"
                )
    return prob


def reduce_problem(
    rho_a: DensityOperator, ch: KrausChannel
) -> tuple[SdpProblem, ReductionEmbedding]:
    """Fidelity SDP restricted to supp(N(rho)) on the input and supp(rho) on
    the output; the reduced optimum equals the full optimum."""
    (_, v_out), (_, v_in, _) = _spectra(rho_a, ch)
    rho_red = density_operator(dag(v_out) @ rho_a.matrix @ v_out)
    ops = tuple(dag(v_in) @ k @ v_out for k in ch.kraus_ops)
    ch_red = KrausChannel(
        kraus_ops=ops,
        dim_in=v_out.shape[1],
        dim_out=v_in.shape[1],
        label_in=ch.label_in,
        label_out=ch.label_out,
    )
    validate_cptp(ch_red, tol=1e-9)
    prob = build_fidelity_sdp(rho_red, ch_red)
    return prob, ReductionEmbedding(v_in=v_in, v_out=v_out)


def lift_choi(x_reduced: np.ndarray, emb: ReductionEmbedding) -> np.ndarray:
    """Lift a reduced feasible Choi matrix to the full problem.

    Off-support inputs are routed to the maximally mixed state on the
    source support, preserving both feasibility and the objective value.
    """
    v_in, v_out = emb.v_in, emb.v_out
    d_b, r_a = v_in.shape[0], v_out.shape[1]
    lift = kron(v_in.conj(), v_out)
    full = lift @ x_reduced @ dag(lift)
    pi_b = v_in @ dag(v_in)
    omega = v_out @ dag(v_out) / r_a
    full += kron((np.eye(d_b) - pi_b).T, omega)
    return full


def _psd_step(s: np.ndarray, ds: np.ndarray, fraction: float = 0.98) -> float:
    """Largest step alpha <= 1 keeping s + alpha*ds positive definite."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("iterate lost positive definiteness")
    inner = np.linalg.solve(chol, np.linalg.solve(chol, ds).conj().T).conj().T
    lam_min = float(np.linalg.eigvalsh(herm_part(inner))[0])
    if lam_min >= 0:
        return 1.0
    return min(1.0, -fraction / lam_min)


def _psd_half_powers(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eig = herm_eig(s)
    w = np.clip(eig.eigenvalues.real, 1e-300, None)
    v = eig.eigenvectors
    return (v * np.sqrt(w)) @ dag(v), (v / np.sqrt(w)) @ dag(v)


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling point W with W Z W = X."""
    z_half, z_inv_half = _psd_half_powers(z)
    inner_half, _ = _psd_half_powers(z_half @ x @ z_half)
    return herm_part(z_inv_half @ inner_half @ z_inv_half)


def _tr_out(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    return partial_trace(m, dims, keep=0)


def _schur_matrix(w: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Matrix of Y -> tr_out[W (Y tensor 1) W] acting on vec(Y)."""
    d_b, d_a = dims
    wt = w.reshape(d_b, d_a, d_b, d_a)
    m1 = wt.transpose(0, 2, 1, 3).reshape(d_b * d_b, d_a * d_a)
    m2 = wt.transpose(3, 1, 2, 0).reshape(d_a * d_a, d_b * d_b)
    p = (m1 @ m2).reshape(d_b, d_b, d_b, d_b)
    return p.transpose(0, 2, 1, 3).reshape(d_b * d_b, d_b * d_b)


def _schur_solve(lc: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lc vec(Y_k) = vec(H_k) for a stack of right-hand sides in one
    real factorization.

    ``lc`` is the matrix of a Hermitian-preserving map on d x d matrices
    (:func:`_schur_matrix`) and ``rhs`` is k x d x d; only the Hermitian part
    of each H_k is used. R(Y) = Re Y + Im Y maps Hermitian matrices
    isometrically onto real ones, and R(L(Y)) = L_R R(Y) with
    L_R = Re lc + Im(lc with transposed columns), which has the conditioning
    of lc. The solutions come back through Y = ((1+i)R + (1-i)R^T)/2, so
    they are exactly Hermitian.
    """
    k, d, _ = rhs.shape
    n = d * d
    lc_real = lc.real + lc.reshape(n, d, d).transpose(0, 2, 1).reshape(n, n).imag
    herm = (rhs + rhs.conj().transpose(0, 2, 1)) / 2
    r = np.linalg.solve(lc_real, (herm.real + herm.imag).reshape(k, n).T)
    r = r.T.reshape(k, d, d)
    rt = r.transpose(0, 2, 1)
    return (r + rt) / 2 + 1j * ((r - rt) / 2)


def solve_sdp(prob: SdpProblem, tol: float = 1e-7, max_iter: int = 100) -> SdpSolution:
    """Primal-dual path-following solve with NT scaling.

    The predictor (affine) step sets the centering weight via Mehrotra's
    heuristic sigma = (mu_aff/mu)^3; the combined step recenters. The
    Newton system is eliminated down to a Hermitian positive definite
    Schur complement on the input system. Its solution is linear in the
    complementarity residual r_c, and the corrector's r_c = sigma mu Z^-1 - X
    is the predictor's plus sigma mu Z^-1, so each iteration factors the
    Schur matrix once, in real coordinates (:func:`_schur_solve`), for the
    two right-hand sides tr_out[W r_d W - X] - r_p and tr_out[Z^-1].
    """
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

    for it in range(1, max_iter + 1):
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

    raise MaxIterations(f"no convergence within {max_iter} iterations")


def optimal_fidelity(rho_a: DensityOperator, ch: KrausChannel, tol: float = 1e-7) -> float:
    """Maximal achievable entanglement fidelity, solved in reduced form."""
    prob, _ = reduce_problem(rho_a, ch)
    sol = solve_sdp(prob, tol=tol)
    return sol.primal


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
