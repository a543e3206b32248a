"""Model parameters, state, flow, Hamiltonians and Poisson tensors.

The sixth-order oscillator q'''''' + alpha*q'''' + beta*q'' + gamma*q = 0 is
written as a first-order linear system on the state

    s = (q, q', q'', q''', q'''', q''''')        (slots 0..5)

and every object here is finite-dimensional linear algebra on that
6-dimensional state: the flow is a companion matrix F, conserved quantities
are quadratic forms H(s) = 1/2 s^T A s with A symmetric, and brackets are
antisymmetric tensors J with {f,g} = (grad f)^T J (grad g).  The three pairs
(J1,H1), (J2,H2), (J3,H3) generate the identical flow J_k A_k = F.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexFrequencies, GammaZero

DIM = 6

# state slot indices, for readability in matrix assembly
Q, QD, QDD, Q3T, Q4T, Q5T = range(6)

# unordered frequency pairs (j, k), 1-based labels into the descending triple;
# the columns of FrequencyTriple.pairs and every per-pair result follow this order
PAIRS = ((1, 2), (1, 3), (2, 3))


class Degeneracy(enum.Enum):
    NON_DEGENERATE = "non_degenerate"
    PARTIALLY_DEGENERATE = "partially_degenerate"
    FULLY_DEGENERATE = "fully_degenerate"


@dataclass(frozen=True)
class PUParams:
    """Coefficients (alpha, beta, gamma) of the sixth-order equation of motion."""

    alpha: float
    beta: float
    gamma: float

    def require_gamma(self) -> None:
        if self.gamma == 0.0:
            raise GammaZero("gamma = 0: J2 and J3 carry 1/gamma factors")


@dataclass(frozen=True)
class FrequencyTriple:
    """Angular frequencies, stored sorted descending, with a degeneracy class.

    Degeneracy is decided on the squared frequencies: the triple is
    non-degenerate iff every pairwise |w_i^2 - w_j^2| exceeds ``tol``.
    """

    omegas: tuple[float, float, float]
    degeneracy: Degeneracy
    tol: float = 1e-9

    @property
    def squares(self) -> tuple[float, float, float]:
        w1, w2, w3 = self.omegas
        return (w1 * w1, w2 * w2, w3 * w3)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        """Read-only pair table (4, 3): rows m, s, r, den, one column per pair of ``PAIRS``.

        For the pair (j, k) with remaining label i, m = w_j^2 w_k^2 is the pair
        product, s = w_j^2 + w_k^2 the pair sum, r = w_i^2 the remaining square
        and den = 2 (w_j^2 - r)(w_k^2 - r) the block denominator, which is 0
        when either square of the pair equals r.
        """
        sq = self.squares
        table = np.array([  # the remaining label is i = 6 - j - k
            (a * b, a + b, r, 2.0 * (a - r) * (b - r))
            for a, b, r in ((sq[j - 1], sq[k - 1], sq[5 - j - k]) for j, k in PAIRS)
        ]).T
        table.flags.writeable = False
        return table

    def is_degenerate(self) -> bool:
        return self.degeneracy is not Degeneracy.NON_DEGENERATE


def frequency_triple(w1: float, w2: float, w3: float, tol: float = 1e-9) -> FrequencyTriple:
    """Sort the frequencies descending and classify their degeneracy."""
    ws = sorted((float(w1), float(w2), float(w3)), reverse=True)
    if ws[2] <= 0.0 or not all(np.isfinite(ws)):
        raise ComplexFrequencies(f"frequencies must be positive reals, got {ws}")
    sq = [w * w for w in ws]
    if sq[0] - sq[2] <= tol:
        deg = Degeneracy.FULLY_DEGENERATE
    elif sq[0] - sq[1] <= tol or sq[1] - sq[2] <= tol:
        deg = Degeneracy.PARTIALLY_DEGENERATE
    else:
        deg = Degeneracy.NON_DEGENERATE
    return FrequencyTriple((ws[0], ws[1], ws[2]), deg, tol)


def as_state(q) -> np.ndarray:
    """Validate and copy a 6-component state vector."""
    s = np.asarray(q, dtype=float).reshape(-1)
    if s.shape != (DIM,):
        raise ValueError(f"state vector must have 6 components, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state vector has non-finite components")
    return s.copy()


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric 6x6 matrix A evaluating as H(s) = 1/2 s^T A s."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (DIM, DIM):
            raise ValueError(f"quadratic form must be 6x6, got {m.shape}")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __call__(self, q) -> float:
        s = np.asarray(q, dtype=float)
        return 0.5 * float(s @ self.matrix @ s)

    def gradient(self, q) -> np.ndarray:
        """Exact gradient A q of the form 1/2 q^T A q."""
        return self.matrix @ np.asarray(q, dtype=float)


@dataclass(frozen=True)
class PoissonTensor:
    """Antisymmetric 6x6 bracket tensor with a provenance tag (J1, J2, J3 or combination)."""

    matrix: np.ndarray
    tag: str = "custom"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (DIM, DIM):
            raise ValueError(f"Poisson tensor must be 6x6, got {m.shape}")
        m = 0.5 * (m - m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CanonicalState:
    """Ostrogradsky coordinates (q1,q2,q3) and momenta (pi1,pi2,pi3)."""

    q1: float
    q2: float
    q3: float
    pi1: float
    pi2: float
    pi3: float


def params_from_frequencies(f: FrequencyTriple) -> PUParams:
    """Elementary symmetric polynomials of the squared frequencies."""
    a, b, c = f.squares
    return PUParams(alpha=a + b + c, beta=a * b + a * c + b * c, gamma=a * b * c)


def frequencies_from_params(p: PUParams, tol: float = 1e-9) -> FrequencyTriple:
    """Invert the parametrisation: roots of x^3 - alpha x^2 + beta x - gamma.

    Roots are found as eigenvalues of the 3x3 companion matrix; they are
    accepted as real when |Im| < 1e-9 (1 + |Re|).  Non-real or non-positive
    roots mean the model is outside the oscillatory regime.

    Repeated roots split under eigensolver noise far beyond machine epsilon,
    so degeneracy is classified from the cubic's discriminant (the product of
    squared root gaps, a polynomial in the coefficients) rather than from the
    computed gaps; clusters detected this way are averaged before the square
    root so degenerate mode bases stay clean.
    """
    al, be, ga = p.alpha, p.beta, p.gamma
    disc_terms = (18.0 * al * be * ga, -4.0 * al ** 3 * ga, al * al * be * be,
                  -4.0 * be ** 3, -27.0 * ga * ga)
    disc = sum(disc_terms)
    disc_scale = max(1e-300, max(abs(t) for t in disc_terms))
    triple_resid = abs(al * al - 3.0 * be)

    if abs(disc) <= 1e-12 * disc_scale and triple_resid <= 1e-10 * max(al * al, 3.0 * abs(be)):
        lam0 = al / 3.0
        if lam0 <= 0.0:
            raise ComplexFrequencies(f"triple root {lam0} of the cubic of {p} is not positive")
        lam = np.array([lam0, lam0, lam0])
        deg = Degeneracy.FULLY_DEGENERATE
    elif abs(disc) <= 1e-12 * disc_scale:
        # a double root is a common root of the cubic and its derivative
        inner = al * al - 3.0 * be
        if inner < 0.0:
            raise ComplexFrequencies(f"characteristic cubic of {p} has complex roots")
        cands = [(al + s * np.sqrt(inner)) / 3.0 for s in (+1.0, -1.0)]
        cubic = lambda x: ((x - al) * x + be) * x - ga
        lam_d = min(cands, key=lambda x: abs(cubic(x)))
        lam_s = al - 2.0 * lam_d
        if lam_d <= 0.0 or lam_s <= 0.0:
            raise ComplexFrequencies(f"characteristic cubic of {p} has non-positive roots")
        lam = np.sort(np.array([lam_d, lam_d, lam_s]))[::-1]
        deg = Degeneracy.PARTIALLY_DEGENERATE
    else:
        comp = np.array([[0.0, 0.0, ga], [1.0, 0.0, -be], [0.0, 1.0, al]])
        roots = np.linalg.eigvals(comp)
        if np.any(np.abs(roots.imag) >= 1e-9 * (1.0 + np.abs(roots.real))):
            raise ComplexFrequencies(f"characteristic cubic of {p} has complex roots {roots}")
        lam = np.sort(roots.real)[::-1]
        if lam[2] <= 0.0:
            raise ComplexFrequencies(f"characteristic cubic of {p} has non-positive root {lam[2]}")
        if lam[0] - lam[2] <= tol:
            lam[:] = lam.mean()
            deg = Degeneracy.FULLY_DEGENERATE
        elif lam[0] - lam[1] <= tol:
            lam[0] = lam[1] = 0.5 * (lam[0] + lam[1])
            deg = Degeneracy.PARTIALLY_DEGENERATE
        elif lam[1] - lam[2] <= tol:
            lam[1] = lam[2] = 0.5 * (lam[1] + lam[2])
            deg = Degeneracy.PARTIALLY_DEGENERATE
        else:
            deg = Degeneracy.NON_DEGENERATE
    w = np.sqrt(lam)
    return FrequencyTriple((float(w[0]), float(w[1]), float(w[2])), deg, tol)


def flow_operator(p: PUParams) -> np.ndarray:
    """Companion matrix F of the sixth-order equation: ds/dt = F s."""
    F = np.zeros((DIM, DIM))
    for i in range(DIM - 1):
        F[i, i + 1] = 1.0
    F[Q5T, Q] = -p.gamma
    F[Q5T, QDD] = -p.beta
    F[Q5T, Q4T] = -p.alpha
    return F


def hamiltonian_form(n: int, p: PUParams) -> QuadraticForm:
    """The n-th conserved Hamiltonian (n = 1, 2, 3) as a quadratic form.

    H1 is the Ostrogradsky energy rewritten on the state s; H2 and H3 are the
    images of H1 under the two scaling symmetries (see the symmetries module).
    Cross terms are split evenly over the two off-diagonal slots so that
    evaluation 1/2 s^T A s reproduces the polynomial exactly.
    """
    al, be, ga = p.alpha, p.beta, p.gamma
    A = np.zeros((DIM, DIM))
    if n == 1:
        # 1/2 q3t^2 - al/2 qdd^2 + be/2 qd^2 + ga/2 q^2 + al qd q3t - q4t qdd + qd q5t
        A[Q, Q] = ga
        A[QD, QD] = be
        A[QDD, QDD] = -al
        A[Q3T, Q3T] = 1.0
        A[QD, Q3T] = A[Q3T, QD] = al
        A[QDD, Q4T] = A[Q4T, QDD] = -1.0
        A[QD, Q5T] = A[Q5T, QD] = 1.0
    elif n == 2:
        # 1/2 (al q3t + be qd + q5t)^2
        #   + ga/2 (be q^2 + 2 al q qdd - al qd^2 + 2 q q4t + qdd^2 - 2 qd q3t)
        A[Q, Q] = ga * be
        A[QD, QD] = be * be - ga * al
        A[QDD, QDD] = ga
        A[Q3T, Q3T] = al * al
        A[Q5T, Q5T] = 1.0
        A[Q, QDD] = A[QDD, Q] = ga * al
        A[Q, Q4T] = A[Q4T, Q] = ga
        A[QD, Q3T] = A[Q3T, QD] = al * be - ga
        A[QD, Q5T] = A[Q5T, QD] = be
        A[Q3T, Q5T] = A[Q5T, Q3T] = al
    elif n == 3:
        # be/2 (al q3t + be qd + q5t)^2 + ga/2 { (ga - 2 al be) qd^2
        #   + (al qdd + be q)^2 - ga q (al q + 2 qdd)
        #   - 2 qd ((al^2+be) q3t + al q5t) + 2 q4t (al qdd + be q)
        #   - 2 q3t (al q3t + q5t) + q4t^2 }
        A[Q, Q] = ga * be * be - ga * ga * al
        A[QD, QD] = be ** 3 + ga * ga - 2.0 * al * be * ga
        A[QDD, QDD] = ga * al * al
        A[Q3T, Q3T] = be * al * al - 2.0 * ga * al
        A[Q4T, Q4T] = ga
        A[Q5T, Q5T] = be
        A[Q, QDD] = A[QDD, Q] = ga * al * be - ga * ga
        A[Q, Q4T] = A[Q4T, Q] = ga * be
        A[QD, Q3T] = A[Q3T, QD] = al * be * be - ga * (al * al + be)
        A[QD, Q5T] = A[Q5T, QD] = be * be - ga * al
        A[QDD, Q4T] = A[Q4T, QDD] = ga * al
        A[Q3T, Q5T] = A[Q5T, Q3T] = al * be - ga
    else:
        raise ValueError(f"hamiltonian_form is defined for n in 1..3, got {n}")
    return QuadraticForm(A)


def poisson_tensor(k: int, p: PUParams) -> PoissonTensor:
    """The k-th Poisson tensor (k = 1, 2, 3).

    J1 encodes the canonical brackets on the state variables; J2 and J3 are
    the compatible tensors solving J_k grad(H_k) = F s.  Both carry inverse
    powers of gamma, so gamma != 0 is required for k in {2, 3}.
    """
    al, be, ga = p.alpha, p.beta, p.gamma
    ab = al * al - be
    J = np.zeros((DIM, DIM))
    if k == 1:
        J[Q, Q5T] = 1.0
        J[QD, Q4T] = -1.0
        J[QDD, Q3T] = 1.0
        J[QDD, Q5T] = -al
        J[Q3T, Q4T] = al
        J[Q4T, Q5T] = ab
    elif k == 2:
        p.require_gamma()
        d1 = al ** 3 - 2.0 * al * be + ga
        J[Q, Q3T] = -1.0
        J[Q, Q5T] = al
        J[QD, QDD] = 1.0
        J[QD, Q4T] = -al
        J[QDD, Q3T] = al
        J[QDD, Q5T] = -ab
        J[Q3T, Q4T] = ab
        J[Q4T, Q5T] = d1
        J /= ga
    elif k == 3:
        p.require_gamma()
        d1 = al ** 3 - 2.0 * al * be + ga
        d2 = al ** 4 - 3.0 * al * al * be + 2.0 * al * ga + be * be
        J[Q, QD] = 1.0
        J[Q, Q3T] = -al
        J[Q, Q5T] = ab
        J[QD, QDD] = al
        J[QD, Q4T] = -ab
        J[QDD, Q3T] = ab
        J[QDD, Q5T] = -d1
        J[Q3T, Q4T] = d1
        J[Q4T, Q5T] = d2
        J /= ga * ga
    else:
        raise ValueError(f"poisson_tensor is defined for k in 1..3, got {k}")
    return PoissonTensor(J - J.T, tag=f"J{k}")


def canonical_units(p: PUParams) -> tuple[float, PUParams]:
    """Frequency scale rho and the unit-scale model (alpha/rho^2, beta/rho^4, gamma/rho^6).

    rho = 2^round(log2(r)/2) with r = max(|alpha|, |beta|^(1/2), |gamma|^(1/3)),
    a squared-frequency scale; rho = 1 when r = 0.  The time rescaling
    t -> t/rho with s = D s_hat, D = diag(1, rho, ..., rho^5), maps the
    canonical model onto p:

        F = rho D F_hat D^-1,  D A_k D = rho^(4k+2) A_hat_k,  J_k = rho^-(4k+1) D J_hat_k D.

    Every identity and every definiteness verdict is invariant under it, and
    rho being a power of two makes the map exact in floating point.
    """
    r = max(abs(p.alpha), math.sqrt(abs(p.beta)), abs(p.gamma) ** (1.0 / 3.0))
    rho = 2.0 ** round(0.5 * math.log2(r)) if r > 0.0 else 1.0
    return rho, PUParams(p.alpha / rho ** 2, p.beta / rho ** 4, p.gamma / rho ** 6)


@functools.lru_cache(maxsize=8)
def _model_matrices(p: PUParams):
    """Read-only (J1..J3, H1..H3, F) of one model, built once and shared by its callers.

    The J tuple is empty when gamma = 0, where J2 and J3 do not exist.
    """
    js = tuple(poisson_tensor(k, p).matrix for k in (1, 2, 3)) if p.gamma != 0.0 else ()
    hs = tuple(hamiltonian_form(n, p).matrix for n in (1, 2, 3))
    F = flow_operator(p)
    F.flags.writeable = False
    return js, hs, F


def _bracket_matrix(a: np.ndarray, j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of ``poisson_bracket``: a j b plus its transpose, for stacked (..., 6, 6) operands."""
    m = a @ j @ b
    return m + np.swapaxes(m, -1, -2)


def poisson_bracket(f: QuadraticForm, g: QuadraticForm, j: PoissonTensor) -> QuadraticForm:
    """Bracket {f,g}(q) = (grad f)^T J (grad g) as a quadratic form.

    The form matrix is A_f J A_g plus its transpose, so that evaluating the
    result at q (with the 1/2 convention) equals the bracket value; it is the
    zero form iff f and g are in involution under j.
    """
    return QuadraticForm(_bracket_matrix(f.matrix, j.matrix, g.matrix))


def ostrogradsky_map(s, p: PUParams) -> CanonicalState:
    """Canonical coordinates and momenta of the higher-derivative Lagrangian."""
    sv = as_state(s)
    return CanonicalState(
        q1=sv[Q],
        q2=sv[QD],
        q3=sv[QDD],
        pi1=p.beta * sv[QD] + p.alpha * sv[Q3T] + sv[Q5T],
        pi2=-p.alpha * sv[QDD] - sv[Q4T],
        pi3=sv[Q3T],
    )


def canonical_hamiltonian(c: CanonicalState, p: PUParams) -> float:
    """Energy in canonical variables; equals hamiltonian_form(1, p) on the state."""
    return (
        c.pi1 * c.q2
        + c.pi2 * c.q3
        + 0.5 * c.pi3 ** 2
        + 0.5 * p.alpha * c.q3 ** 2
        - 0.5 * p.beta * c.q2 ** 2
        + 0.5 * p.gamma * c.q1 ** 2
    )
