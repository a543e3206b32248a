"""Mappings of the sixth-order model onto three coupled second-order systems.

A linear projection x_i = mu0 q + mu2 q'' + mu4 q'''' (odd-derivative terms
are forced to vanish) turns the sixth-order equation into three second-order
equations a_i x_i'' + b_i x_i + couplings = 0.  Four named solution families
are built here:

* Ta2 - three decoupled oscillators, one frequency each (all couplings zero);
* Ta1 - all three equations oscillator-equivalent, couplings on;
* Tb1 - two oscillator-equivalent equations, the third an identity;
* Tc1 - one oscillator-equivalent equation, the other two identities.

Each family exists only where its radicands are real; branch signs are
explicit free choices, never silently picked.  Builders validate themselves
through the defining equations (see equivalence_check), and the transformed
Hamiltonian is obtained by pulling the 3D phase-space energy back to the
6-dimensional state and decomposing it over (H1, H2, H3).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DIM,
    PAIRS,
    PUParams,
    QuadraticForm,
    _model_matrices,
    _read_only_field,
    canonical_units,
    flow_operator,
    frequencies_from_params,
)
from .errors import (
    ComplexBranch,
    ComplexFrequencies,
    ConfigError,
    EquivalenceFailure,
    InvalidPermutation,
    ZeroDenominator,
    ZeroKinetic,
    config_object,
    config_value,
)
from .hierarchy import _span_weights
from .positivity import PositivityVerdict, eigenvalue_verdict, hbar_prefactors

KINDS = ("Ta1", "Ta2", "Tb1", "Tc1")

# Hamiltonian weights in canonical units: c_hat_k = rho^(4k+2) c_k
_WEIGHT_EXPONENTS = np.array([6.0, 10.0, 14.0])

_PATTERNS = {
    "Ta1": ("PU", "PU", "PU"),
    "Ta2": ("PU", "PU", "PU"),
    "Tb1": ("PU", "PU", "trivial"),
    "Tc1": ("PU", "trivial", "trivial"),
}


@dataclass(frozen=True)
class Rep3DParams:
    """Kinetic, potential and coupling coefficients of the 3D Lagrangian."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    g: tuple[float, float, float]  # (g1, g2, g3) coupling xy, xz, yz

    @property
    def stiffness(self) -> np.ndarray:
        """K = diag(b) plus the couplings: the symmetric 3x3 matrix of the potential."""
        (b1, b2, b3), (g1, g2, g3) = self.b, self.g
        return np.array([[b1, g1, g2], [g1, b2, g3], [g2, g3, b3]])


@dataclass(frozen=True)
class StateProjection:
    """3x6 projection onto (x, y, z); only even-derivative columns are nonzero."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _read_only_field(self, "matrix", (3, DIM), "projection must be 3x6")
        if np.any(m[:, 1::2] != 0.0):
            raise ValueError("odd-derivative columns of a projection must vanish")

    @staticmethod
    def from_rows(rows) -> "StateProjection":
        """Rows are (mu0, mu2, mu4) coefficient triples on (q, q'', q'''')."""
        m = np.zeros((3, DIM))
        for r, (c0, c2, c4) in enumerate(rows):
            m[r, 0], m[r, 2], m[r, 4] = c0, c2, c4
        return StateProjection(m)


@dataclass(frozen=True)
class Representation:
    kind: str
    params3d: Rep3DParams
    projection: StateProjection
    free_choices: dict = field(default_factory=dict)
    auxiliary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "free_choices": self.free_choices,
            "a": list(self.params3d.a),
            "b": list(self.params3d.b),
            "g": list(self.params3d.g),
            "projection_rows": [
                [self.projection.matrix[r, 0], self.projection.matrix[r, 2],
                 self.projection.matrix[r, 4]]
                for r in range(3)
            ],
            "auxiliary": {k: v for k, v in self.auxiliary.items()},
        }


@dataclass(frozen=True)
class EquivalenceReport:
    pattern: tuple[str, str, str]
    structural_residuals: tuple[float, float, float]
    trajectory_residuals: Optional[tuple[float, float, float]] = None


def _build_ta2(p: PUParams, choices: dict, tol: Optional[float]) -> Representation:
    f = frequencies_from_params(p, tol)
    f.require_distinct("the decoupled family")
    a = choices.get("a", (1.0, 1.0, 1.0))
    # default permutations pair each row with the two frequencies it does not own
    perms = choices.get("perms", ((2, 3, 1), (1, 3, 2), (1, 2, 3)))
    owns = []
    for row in perms:
        if sorted(row) != [1, 2, 3]:
            raise InvalidPermutation(f"row indices {row} are not a permutation of (1,2,3)")
        owns.append(row[2])
    if sorted(owns) != [1, 2, 3]:
        raise InvalidPermutation(
            f"owned indices {tuple(owns)} must cover 1..3 so the three equations "
            "carry the three distinct frequencies"
        )
    if any(v == 0.0 for v in a):
        raise ZeroKinetic(f"kinetic coefficients must be nonzero, got {a}")
    m, s, r, _ = f.pairs.tolist()
    rows, b = [], []
    for ax, row in zip(a, perms):
        col = PAIRS.index(tuple(sorted(row[:2])))  # the pair the row does not own
        rows.append((m[col] / ax, s[col] / ax, 1.0 / ax))
        b.append(ax * r[col])
    return Representation(
        kind="Ta2",
        params3d=Rep3DParams(a=a, b=tuple(b), g=(0.0, 0.0, 0.0)),
        projection=StateProjection.from_rows(rows),
        free_choices={"a": list(a), "perms": [list(r) for r in perms]},
        auxiliary={"omegas": list(f.omegas)},
    )


def ta1_radicand(p: PUParams) -> float:
    al, be, ga = p.alpha, p.beta, p.gamma
    return (
        2.0 * al ** 3 * (9.0 * be + 4.0)
        - al ** 2 * (3.0 * be * (9.0 * be + 10.0) + 18.0 * ga + 8.0)
        + 2.0 * al * (be * (9.0 * be + 27.0 * ga + 8.0) + 12.0 * ga + 2.0)
        - 3.0 * al ** 4
        - 3.0 * (be + 3.0 * ga) ** 2
        - 4.0 * be
        - 8.0 * ga
        - 1.0
    )


def _build_ta1(p: PUParams, choices: dict, tol: Optional[float]) -> Representation:
    branch = choices.get("branch", +1)
    R = ta1_radicand(p)
    if R < 0.0:
        raise ComplexBranch(f"fully coupled family has negative radicand {R:.6g} at {p}")
    al, be, ga = p.alpha, p.beta, p.gamma
    rho1 = branch * 0.5 * math.sqrt(R)
    rho2 = al - al * al + 3.0 * al * be - 3.0 * ga
    g1 = 0.5 * (rho2 - 1.0 + al - be) - rho1
    g2 = 0.5 + be - rho2
    g3 = 0.5 * (rho2 - 1.0 + al - be) + rho1
    mu0 = 0.5 * (1.0 - rho2 - al + 3.0 * be) + rho1
    tau0 = 0.5 * (1.0 - rho2 - al + 3.0 * be) - rho1
    bx = 0.5 * (rho2 + al - be) + rho1
    by = be - rho2
    bz = 0.5 * (rho2 + al - be) - rho1
    return Representation(
        kind="Ta1",
        params3d=Rep3DParams(a=(1.0, 1.0, 1.0), b=(bx, by, bz), g=(g1, g2, g3)),
        projection=StateProjection.from_rows(
            [(mu0, 0.0, 1.0), (rho2, 1.0, 1.0), (tau0, 0.0, 1.0)]
        ),
        free_choices={"branch": branch},
        auxiliary={"rho1": rho1, "rho2": rho2, "radicand": R},
    )


def _build_tb1(p: PUParams, choices: dict, tol: Optional[float]) -> Representation:
    al, be, ga = p.alpha, p.beta, p.gamma
    if al == 0.0:
        raise ZeroDenominator("the scale tau2 = (1 +/- sqrt(...))/(2 alpha) needs alpha != 0")
    tau_branch = choices.get("tau2_branch", +1)
    g3_branch = choices.get("g3_branch", +1)
    rad1 = 1.0 + 8.0 * al * (-al * be + ga)
    if rad1 < 0.0:
        raise ComplexBranch(
            f"two-equation family needs 1 + 8 alpha (gamma - alpha beta) >= 0, got {rad1:.6g}"
        )
    tau2 = (1.0 + tau_branch * math.sqrt(rad1)) / (2.0 * al)
    if tau2 == 0.0:
        raise ZeroDenominator("tau2 = 0 leaves the coupling g3 undefined")
    try:
        rad2 = -2.0 * tau2 ** 2 - 2.0 * be * tau2 ** 4 - tau2 ** 6
    except OverflowError as exc:  # |tau2| beyond about 1e51: the sign of -tau2^6 (1 + 2 beta w^2 + 2 w^4)
        w = 1.0 / tau2
        if 1.0 + 2.0 * be * w * w + 2.0 * (w * w) ** 2 <= 0.0:
            raise EquivalenceFailure(-1, math.inf, f"Tb1 leaves the float range at tau2 {tau2:g}") from exc
        rad2 = -math.inf
    if rad2 < 0.0:
        raise ComplexBranch(
            f"two-equation family needs -2 tau2^2 - 2 beta tau2^4 - tau2^6 >= 0, got {rad2:.6g}"
        )
    g3 = (-tau2 ** 3 + g3_branch * math.sqrt(rad2)) / (2.0 * tau2 ** 2)
    g2 = -g3 - tau2
    g1 = (al * tau2 - 1.0) / (2.0 * tau2)
    mu0 = be + tau2 * (g3 + tau2)
    nu0 = be - g3 * tau2
    bx = (1.0 + al * tau2) / (2.0 * tau2)
    bz = tau2 * (be + 2.0 * g3 ** 2 + 2.0 * g3 * tau2 + tau2 ** 2)
    return Representation(
        kind="Tb1",
        params3d=Rep3DParams(a=(1.0, 1.0, 1.0), b=(bx, bx, bz), g=(g1, g2, g3)),
        projection=StateProjection.from_rows(
            [(mu0, 0.0, 1.0), (nu0, 0.0, 1.0), (1.0, tau2, 0.0)]
        ),
        free_choices={"tau2_branch": tau_branch, "g3_branch": g3_branch},
        auxiliary={"tau2": tau2, "radicand_tau2": rad1, "radicand_g3": rad2},
    )


def _tc1_terms(p: PUParams, mu0: float, nu0: float, tau0: float):
    """(kappa1, mu2, w, radicand) of Tc1: rows y and z force mu2, and put (g1, g2) on the line
    g1 nu0 + g2 tau0 = w (q-condition) and the circle g1^2 + g2^2 = v (q''-condition)."""
    al, be, ga = p.alpha, p.beta, p.gamma
    k1 = nu0 * nu0 + tau0 * tau0
    mu2 = -(k1 - be * mu0 + mu0 * mu0) / ga
    w = ga - al * mu0 + mu0 * mu2
    v = mu0 + (al - mu2) * mu2 - be
    return k1, mu2, w, v * k1 - w * w


def tc1_radicand(p: PUParams, mu0: float, nu0: float, tau0: float) -> float:
    """Radicand of the coupling solve; negative means the family does not exist here."""
    return _tc1_terms(p, mu0, nu0, tau0)[3]


def _build_tc1(p: PUParams, choices: dict, tol: Optional[float]) -> Representation:
    p.require_gamma()
    mu0 = choices.get("mu0", 1.0)
    nu0 = choices.get("nu0", 1.0)
    tau0 = choices.get("tau0", 1.0)
    branch = choices.get("branch", +1)
    if mu0 == 0.0 or nu0 == 0.0 or tau0 == 0.0:
        raise ZeroDenominator(f"mu0, nu0, tau0 must all be nonzero, got {(mu0, nu0, tau0)}")
    k1, mu2, w, rad = _tc1_terms(p, mu0, nu0, tau0)
    if rad < 0.0:
        raise ComplexBranch(
            f"single-equation family has negative radicand {rad:.6g} "
            f"at {p} with (mu0,nu0,tau0)=({mu0},{nu0},{tau0})"
        )
    s = branch * math.sqrt(rad) / k1
    g1 = w * nu0 / k1 - s * tau0
    g2 = w * tau0 / k1 + s * nu0
    den = g1 * tau0 - g2 * nu0
    if abs(den) < 1e-12 * max(1.0, abs(g1 * tau0), abs(g2 * nu0)):
        raise ZeroDenominator(
            f"g1 tau0 - g2 nu0 = {den:.3e} vanishes; g3 is undetermined for these choices"
        )
    g3 = -((nu0 * nu0 - tau0 * tau0) + mu0 * (g1 * g1 - g2 * g2) + mu2 * (g1 * nu0 - g2 * tau0)) / (
        2.0 * den
    )
    bx = p.alpha - mu2
    by = -(g1 * mu0 + g3 * tau0) / nu0
    bz = -(g2 * mu0 + g3 * nu0) / tau0
    return Representation(
        kind="Tc1",
        params3d=Rep3DParams(a=(1.0, 1.0, 1.0), b=(bx, by, bz), g=(g1, g2, g3)),
        projection=StateProjection.from_rows(
            [(mu0, mu2, 1.0), (nu0, -g1, 0.0), (tau0, -g2, 0.0)]
        ),
        free_choices={"mu0": mu0, "nu0": nu0, "tau0": tau0, "branch": branch},
        auxiliary={
            "kappa1": k1,
            "kappa2": k1 + mu0 * mu0,
            "mu2": mu2,
            "radicand": rad,
        },
    )


_BUILDERS = {"Ta1": _build_ta1, "Ta2": _build_ta2, "Tb1": _build_tb1, "Tc1": _build_tc1}

# free choice -> (number kind, list shape); each family reads the choices it uses
_CHOICES = {
    "a": (float, (3,)),
    "perms": (int, (3, 3)),
    **dict.fromkeys(("mu0", "nu0", "tau0"), (float, ())),
    **dict.fromkeys(("branch", "tau2_branch", "g3_branch"), (int, ())),
}


def build_representation(
    kind: str, p: PUParams, free_choices: Optional[dict] = None, tol: Optional[float] = None
) -> Representation:
    """Construct one of the named families at the given model parameters.

    The free choices are converted here, so a malformed one is a ConfigError.
    ``tol`` (default ``DEGENERACY_TOL``) classifies the frequencies Ta2 needs distinct.
    """
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    choices = config_object({} if free_choices is None else free_choices, "free_choices")
    choices = {
        k: config_value(v, f"free_choices.{k}", *_CHOICES[k]) if k in _CHOICES else v
        for k, v in choices.items()
    }
    for k in ("branch", "tau2_branch", "g3_branch"):
        if choices.get(k, 1) not in (-1, 1):
            raise ConfigError(f"free_choices.{k} must be +1 or -1, got {choices[k]}")
    return _BUILDERS[kind](p, choices, tol)


def project_state(r: Representation, p: PUParams, s) -> tuple[np.ndarray, np.ndarray]:
    """Positions (x,y,z) = T s and velocities T F s along the flow."""
    sv = np.asarray(s, dtype=float)
    T = r.projection.matrix
    return T @ sv, T @ (flow_operator(p) @ sv)


def second_order_residual(r: Representation, x, y, z, xdd, ydd, zdd) -> np.ndarray:
    """Residuals of the three coupled second-order equations of motion.

    Scalar arguments give three residuals; equal-length arrays give a
    (3, n) residual array.
    """
    pos = np.asarray([x, y, z], dtype=float)
    acc = np.asarray([xdd, ydd, zdd], dtype=float)
    return (acc.T * np.asarray(r.params3d.a)).T + r.params3d.stiffness @ pos


def _substitution(r: Representation, part) -> np.ndarray:
    """Equation i, a_i x_i'' + sum_j K_ij x_j with K = diag(b) + couplings, over q's derivatives.

    Every factor passes through ``part`` first: ``np.asarray`` gives the
    coefficients, ``np.abs`` the size of the terms summed into each one.
    """
    K = part(r.params3d.stiffness)
    x = np.zeros((3, 4))
    x[:, :3] = part(r.projection.matrix[:, 0::2])  # x_j = mu0 q + mu2 q'' + mu4 q''''
    return part(np.asarray(r.params3d.a))[:, None] * np.roll(x, 1, axis=1) + K @ x


def equivalence_check(r: Representation, p: PUParams, trajectory=None) -> EquivalenceReport:
    """Classify each second-order equation and verify the family's pattern.

    Classification is a matrix identity on the weight vectors w_i, the
    coefficients of (q, q'', q'''', q'''''') in equation i after substitution:
    oscillator-equivalent iff w_i = lambda (gamma, beta, alpha, 1) with
    lambda != 0, trivial iff w_i = 0 (the zero functional, not merely small
    along one orbit).  Residuals along a supplied trajectory are verified
    too, and a mismatch with the family's declared pattern raises.

    The weights are judged in the canonical units of ``canonical_units``,
    each within 1e-9 of the size of the terms summed into it, so the
    structural residuals are canonical too; trajectory residuals must stay
    within 1e-7 of the orbit's scale.
    """
    rho, pc = canonical_units(p)
    unit = rho ** np.array([-6.0, -4.0, -2.0, 0.0])  # the q^(2k) weight carries rho^(6-2k)
    W = _substitution(r, np.asarray) * unit
    terms = _substitution(r, np.abs) * unit
    target = np.array([pc.gamma, pc.beta, pc.alpha, 1.0])
    pattern, resids = [], []
    for i in range(3):
        w = W[i]
        scale = float(terms[i].max())
        if np.abs(w).max() <= 1e-9 * scale:
            pattern.append("trivial")
            resids.append(float(np.abs(w).max()))
            continue
        lam = w[3]
        mismatch = float(np.abs(w - lam * target).max())
        if abs(lam) > 1e-9 * scale and mismatch <= 1e-9 * scale:
            pattern.append("PU")
            resids.append(mismatch)
        else:
            raise EquivalenceFailure(i, mismatch)
    expected = _PATTERNS[r.kind]
    if tuple(pattern) != expected:
        worst = int(np.argmax([0 if a == b else 1 for a, b in zip(pattern, expected)]))
        raise EquivalenceFailure(
            worst,
            resids[worst],
            f"pattern {tuple(pattern)} does not match the declared {expected} for {r.kind}",
        )
    traj_resids = None
    if trajectory is not None:
        F = flow_operator(p)
        T = r.projection.matrix
        states = np.asarray(trajectory.states, dtype=float)
        pos = states @ T.T
        acc = states @ (T @ F @ F).T
        res = second_order_residual(
            r, pos[:, 0], pos[:, 1], pos[:, 2], acc[:, 0], acc[:, 1], acc[:, 2]
        )
        res = np.atleast_2d(np.abs(res))
        scale = max(1.0, float(np.abs(pos).max()), float(np.abs(acc).max()))
        traj_resids = tuple(float(res[i].max()) for i in range(3))
        worst = int(np.argmax(traj_resids))
        if traj_resids[worst] > 1e-7 * scale:
            raise EquivalenceFailure(worst, traj_resids[worst], "trajectory residual too large")
    return EquivalenceReport(tuple(pattern), tuple(resids), traj_resids)


def legendre_hamiltonian(r: Representation) -> QuadraticForm:
    """3D phase-space energy as a form on (x, y, z, p_x, p_y, p_z).

    H = sum p_i^2 / (2 a_i) + sum b_i x_i^2 / 2 + g1 xy + g2 xz + g3 yz.
    """
    a = r.params3d.a
    if any(v == 0.0 for v in a):
        raise ZeroKinetic(f"Legendre transform undefined for kinetic coefficients {a}")
    A = np.zeros((DIM, DIM))
    A[:3, :3] = r.params3d.stiffness
    A[3:, 3:] = np.diag(1.0 / np.asarray(a))
    return QuadraticForm(A)


def phase_space_map(r: Representation, p: PUParams) -> np.ndarray:
    """6x6 map s -> (x, y, z, p_x, p_y, p_z) with p_i = a_i * (d x_i / dt)."""
    T = r.projection.matrix
    vel = T @ flow_operator(p)
    return np.vstack([T, np.diag(r.params3d.a) @ vel])


def transformed_coefficients(r: Representation, p: PUParams) -> tuple[float, float, float]:
    """Weights (c4,c5,c6) with the pulled-back 3D energy equal to c4 H1 + c5 H2 + c6 H3.

    The pullback of the phase-space form through the projection/velocity map
    always lands in the span of (H1, H2, H3) for a valid family; the
    decomposition residual is checked, so a transcription error in a builder
    cannot silently produce wrong weights.  The decomposition runs in the
    canonical units of ``canonical_units`` and the weights are mapped back
    exactly.  Far from unit scale rho^14 or a mapped weight can leave the
    float range; that raises ``EquivalenceFailure`` too.
    """
    rho, pc = canonical_units(p)
    S = phase_space_map(r, p) * rho ** np.arange(DIM)
    A6 = S.T @ legendre_hamiltonian(r).matrix @ S  # D A6 D = sum_k c_hat_k A_hat_k
    _, hs, _ = _model_matrices(pc)
    cols = np.stack([h.ravel() for h in hs], axis=1)
    sol, resid, ok = _span_weights(cols, A6.ravel())
    if not ok:
        raise EquivalenceFailure(
            -1, float(resid), f"pulled-back energy of {r.kind} is not a combination of H1..H3"
        )
    with np.errstate(all="ignore"):  # rho^14 and c may leave the float range: refused below
        factor = rho ** _WEIGHT_EXPONENTS
        c = sol / factor
    if not (np.isfinite([c, factor]).all() and c.all() and factor.all()):
        raise EquivalenceFailure(-1, float(resid), f"weights of {r.kind} leave the float range "
                                 f"at frequency scale rho = 2^{math.log2(rho):g}")
    return (float(c[0]), float(c[1]), float(c[2]))


def representation_positivity(
    weights: tuple[float, float, float], p: PUParams
) -> PositivityVerdict:
    """Definiteness verdict for a family's transformed Hamiltonian with ``weights`` (c4,c5,c6).

    Uses the eigenvalue route on the combined form directly, so it also works
    outside the oscillatory parameter regime (where no real frequencies, and
    hence no block prefactors, exist).  The verdict and ``min_eigenvalue``
    belong to the canonical form sum_k c_hat_k A_hat_k = D Abar D of
    ``canonical_units``, congruent to the physical one; the prefactors are
    physical and the witness is mapped back to the physical state.
    """
    rho, pc = canonical_units(p)
    v = eigenvalue_verdict(np.multiply(weights, rho ** _WEIGHT_EXPONENTS), pc)
    try:
        f = frequencies_from_params(p)
    except ComplexFrequencies:
        f = None
    pref = tuple(hbar_prefactors(*weights, f)) if f is not None and not f.is_degenerate() else None
    witness = None if v.witness is None else v.witness * rho ** np.arange(DIM)
    return dataclasses.replace(v, prefactors=pref, witness=witness)
