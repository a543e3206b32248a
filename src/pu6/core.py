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
from typing import Optional

import numpy as np

from .errors import ComplexFrequencies, DegenerateFrequencies, GammaZero

DIM = 6

# state slot indices, for readability in matrix assembly
Q, QD, QDD, Q3T, Q4T, Q5T = range(6)

# unordered frequency pairs (j, k), 1-based labels into the descending triple;
# the columns of FrequencyTriple.pairs and every per-pair result follow this order
PAIRS = ((1, 2), (1, 3), (2, 3))

_EPS = float(np.finfo(float).eps)


class Degeneracy(enum.Enum):
    NON_DEGENERATE = "non_degenerate"
    PARTIALLY_DEGENERATE = "partially_degenerate"
    FULLY_DEGENERATE = "fully_degenerate"


# the clusters of the descending roots that ``_classified`` tests, in order
_CLUSTERS = (((0, 1, 2), Degeneracy.FULLY_DEGENERATE), ((0, 1), Degeneracy.PARTIALLY_DEGENERATE),
             ((1, 2), Degeneracy.PARTIALLY_DEGENERATE))


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

    Build it with ``frequency_triple`` or ``frequencies_from_params``: both
    classify the squared frequencies by ``_classified`` and store every
    degenerate cluster as one value, so repeated frequencies compare equal.
    """

    omegas: tuple[float, float, float]
    degeneracy: Degeneracy

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

    def require_distinct(self, what: str, error: type = DegenerateFrequencies) -> None:
        """Raise ``error``, naming ``what``, unless the frequencies are pairwise distinct."""
        if self.is_degenerate():
            raise error(f"{what} needs pairwise distinct frequencies, got {self.omegas}")


def frequency_triple(w1: float, w2: float, w3: float, tol: Optional[float] = None) -> FrequencyTriple:
    """Sort the frequencies descending and classify their squares as ``frequencies_from_params`` does."""
    ws = sorted((float(w1), float(w2), float(w3)), reverse=True)
    if ws[2] <= 0.0 or not all(np.isfinite(ws)):
        raise ComplexFrequencies(f"frequencies must be positive reals, got {ws}")
    sq = [w * w for w in ws]
    return _classified(sq, _cubic(*sq), tol)


def as_state(q) -> np.ndarray:
    """Validate and copy a 6-component state vector."""
    s = np.asarray(q, dtype=float).reshape(-1)
    if s.shape != (DIM,):
        raise ValueError(f"state vector must have 6 components, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state vector has non-finite components")
    return s.copy()


def _read_only_field(obj, name: str, shape=None, message: str = "", project=None) -> np.ndarray:
    """Store field ``name`` of frozen dataclass ``obj`` as a read-only float array, through
    ``project`` when given; a shape other than ``shape`` raises ValueError with ``message``."""
    m = np.asarray(getattr(obj, name), dtype=float)
    if shape is not None and m.shape != shape:
        raise ValueError(f"{message}, got {m.shape}")
    m = m if project is None else project(m)
    m.flags.writeable = False
    object.__setattr__(obj, name, m)
    return m


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric 6x6 matrix A evaluating as H(s) = 1/2 s^T A s."""

    matrix: np.ndarray

    def __post_init__(self):
        _read_only_field(self, "matrix", (DIM, DIM), "quadratic form must be 6x6",
                         lambda m: 0.5 * (m + m.T))

    def __call__(self, q) -> float:
        s = np.asarray(q, dtype=float)
        return 0.5 * float(s @ self.matrix @ s)

    def gradient(self, q) -> np.ndarray:
        """Exact gradient A q of the form 1/2 q^T A q."""
        return self.matrix @ np.asarray(q, dtype=float)


def _form_values(states: np.ndarray, matrices) -> list[np.ndarray]:
    """Per matrix A, H(s(t)) = s^T A s / 2 along the rows of ``states``."""
    return [0.5 * np.einsum("ti,ij,tj->t", states, a, states) for a in matrices]


@dataclass(frozen=True)
class PoissonTensor:
    """Antisymmetric 6x6 bracket tensor with a provenance tag (J1, J2, J3 or combination)."""

    matrix: np.ndarray
    tag: str = "custom"

    def __post_init__(self):
        _read_only_field(self, "matrix", (DIM, DIM), "Poisson tensor must be 6x6",
                         lambda m: 0.5 * (m - m.T))


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
    return _cubic(*f.squares)


def _cubic(a: float, b: float, c: float) -> PUParams:
    return PUParams(alpha=a + b + c, beta=a * b + a * c + b * c, gamma=a * b * c)


def frequencies_from_params(p: PUParams, tol: Optional[float] = None) -> FrequencyTriple:
    """Invert the parametrisation: roots of x^3 - alpha x^2 + beta x - gamma.

    The roots are the eigenvalues of the 3x3 companion matrix, classified
    by ``_classified``.  Non-real or non-positive roots mean the model is
    outside the oscillatory regime.
    """
    comp = np.array([[0.0, 0.0, p.gamma], [1.0, 0.0, -p.beta], [0.0, 1.0, p.alpha]])
    return _classified(np.linalg.eigvals(comp), p, tol)


def _classified(roots, p: PUParams, tol: Optional[float]) -> FrequencyTriple:
    """The frequency triple of ``roots``, the roots of p's cubic, by one rule per cluster.

    Sorted by real part, a cluster (the triple, then each adjacent pair) is
    degenerate when its largest gap g (a complex modulus, so a double root
    split into a conjugate pair counts) is within the split that rounding
    the cubic by 64 eps S(m) causes (Wilkinson), S(x) the product of
    |x| + |root|: g^3 <= 64 eps S(m) for the triple, g^2 |m - b| <= 64 eps S(m)
    for a pair with third root b, or, when ``tol`` is given, within ``tol``
    of its mean m.  A cluster of unequal roots becomes the multiple root, a
    root of a derivative of the cubic: alpha/3, or for a pair the critical
    point d on its side, the third root then alpha - 2 d.
    Unclustered roots must be real, and every root positive.  The floor alone
    spans a relative gap of at least (256 eps)^(1/2) ~ 2.4e-7 for a pair and
    2 (64 eps)^(1/3) ~ 4.8e-5 for the triple, so a ``tol`` below it changes
    no class: omegas (3, 2 + 1e-7, 2) are PARTIALLY_DEGENERATE at tol 0,
    1e-12 and 1e-9 alike, and without one.
    """
    lam = sorted(map(complex, np.ravel(roots)), key=lambda z: -z.real)
    scale = max(map(abs, lam)) or 1.0
    x = [z / scale for z in lam]  # the tests are scale-free; this keeps them finite
    for cluster, deg in _CLUSTERS:
        m = sum(x[k].real for k in cluster) / len(cluster)
        gap = max(abs(x[j] - x[k]) for j in cluster for k in cluster if j < k)
        rest = math.prod(abs(m - x[k]) for k in range(3) if k not in cluster)
        if gap ** len(cluster) * rest <= 64.0 * _EPS * math.prod(abs(m) + abs(z) for z in x) \
                or tol is not None and gap <= tol * abs(m):
            break
    else:
        cluster, deg = (), Degeneracy.NON_DEGENERATE
    sq, al = [z.real for z in lam], p.alpha
    if len({lam[k] for k in cluster}) > 1:
        if len(cluster) == 3:
            sq = [al / 3.0] * 3
        else:
            side = 1.0 if cluster == (0, 1) else -1.0
            d = (al + side * math.sqrt(max(al * al - 3.0 * p.beta, 0.0))) / 3.0
            sq = [d, d, al - 2.0 * d]
    if any(z.imag != 0.0 for k, z in enumerate(lam) if k not in cluster):
        raise ComplexFrequencies(f"characteristic cubic of {p} has complex roots {roots}")
    sq.sort(reverse=True)
    if sq[2] <= 0.0:
        raise ComplexFrequencies(f"characteristic cubic of {p} has non-positive root {sq[2]}")
    w = [math.sqrt(v) for v in sq]
    return FrequencyTriple((w[0], w[1], w[2]), deg)


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
    rho being a power of two makes the map exact in floating point as long
    as rho^6 and rho^-6 are normal floats (the CLI's range rule).
    """
    r = max(abs(p.alpha), math.sqrt(abs(p.beta)), abs(p.gamma) ** (1.0 / 3.0))
    k = round(0.5 * math.log2(r)) if r > 0.0 else 0
    scaled = (math.ldexp(v, -n * k) for v, n in ((p.alpha, 2), (p.beta, 4), (p.gamma, 6)))
    return 2.0 ** k, PUParams(*scaled)  # ldexp divides by rho^n exactly and cannot overflow


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


def _ostrogradsky(s: np.ndarray, p: PUParams) -> np.ndarray:
    """``ostrogradsky_map`` for states (n, 6) or one (6,): columns q1, q2, q3, pi1, pi2, pi3."""
    q, qd, qdd, q3t, q4t, q5t = np.moveaxis(s, -1, 0)
    return np.stack([q, qd, qdd, p.beta * qd + p.alpha * q3t + q5t, -p.alpha * qdd - q4t, q3t], axis=-1)


def _canonical_energy(c: np.ndarray, p: PUParams) -> np.ndarray:
    """``canonical_hamiltonian`` for rows (n, 6) or one (6,) of ``_ostrogradsky``."""
    q1, q2, q3, pi1, pi2, pi3 = np.moveaxis(c, -1, 0)
    return (pi1 * q2 + pi2 * q3 + 0.5 * pi3 ** 2 + 0.5 * p.alpha * q3 ** 2
            - 0.5 * p.beta * q2 ** 2 + 0.5 * p.gamma * q1 ** 2)


def ostrogradsky_map(s, p: PUParams) -> CanonicalState:
    """Canonical coordinates and momenta of the higher-derivative Lagrangian."""
    return CanonicalState(*_ostrogradsky(as_state(s), p))


def canonical_hamiltonian(c: CanonicalState, p: PUParams) -> float:
    """Energy in canonical variables; equals hamiltonian_form(1, p) on the state."""
    return _canonical_energy(np.array([c.q1, c.q2, c.q3, c.pi1, c.pi2, c.pi3]), p)
