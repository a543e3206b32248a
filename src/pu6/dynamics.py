"""Exact mode solutions, RK4 integration, drift measurement and interactions.

Exact solutions are mode decompositions over six basis functions t^k sin/cos,
with the basis chosen by degeneracy class; all time derivatives are evaluated
analytically (product/chain rule), never by finite differences, so that the
flow-residual invariant isolates formula errors.

For an interaction-free (linear) flow one RK4 step is a fixed polynomial in
dt F, so `integrate_rk4` builds that 6x6 increment once, then the increments
of its first 128 powers, and fills the trajectory a block of up to 128 states
at a time from one state; interacting flows keep the four field evaluations
per step.  At dt <= 1e-3 the block form stays within about 1e-13 of max|s|
of the four-stage loop (5e-12 on a fully degenerate model); at coarse steps
secular modes amplify rounding, in every RK4 form, to at most about 24 times
the step-by-step increment's deviation (8e-8 at (10, 10, 10), dt = 0.05).
Where rounding decides the outcome the forms can part: a decaying state of
1e300 whose rounding errors feed a growing mode overflows at a step that
depends on those errors.

The interacting field adds a potential gradient -W'(s[slot]) to the last
component of the linear flow; its pointwise Jacobian and the induced bracket
residual Jac.J + J.Jac^T quantify where the multi-Hamiltonian structure
survives an interaction (only the first tensor, and only for W of the
position itself).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DIM,
    Degeneracy,
    FrequencyTriple,
    PoissonTensor,
    PUParams,
    QuadraticForm,
    _form_values,
    _model_matrices,
    _read_only_field,
    as_state,
    flow_operator,
    params_from_frequencies,
)
from .errors import NonFinite, SingularModeMatrix
from .parallel import write_rows


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Mode:
    """Basis function t^power * trig(omega t), trig in {sin, cos}."""

    power: int
    omega: float
    trig: str  # "sin" | "cos"

    def derivative(self, t: float | np.ndarray, order: int) -> np.ndarray:
        """Analytic d^order/dt^order of the mode, via the product rule.

        d^m/dt^m trig(w t) = w^m trig(w t + m pi/2) keeps the trigonometric
        bookkeeping in a single phase shift.
        """
        t = np.asarray(t, dtype=float)
        base = 0.0 if self.trig == "sin" else 0.5 * math.pi
        total = np.zeros_like(t)
        for r in range(min(order, self.power) + 1):
            fall = math.perm(self.power, r)  # falling factorial k(k-1)...(k-r+1)
            binom = math.comb(order, r)
            phase = base + (order - r) * 0.5 * math.pi
            total = total + (
                binom * fall * t ** (self.power - r) * self.omega ** (order - r)
                * np.sin(self.omega * t + phase)
            )
        return total


def _mode_basis(f: FrequencyTriple) -> list[_Mode]:
    """Six modes for the class of ``f``, whose repeated frequencies are stored equal."""
    w1, w2, w3 = f.omegas
    if f.degeneracy is Degeneracy.NON_DEGENERATE:
        return [
            _Mode(0, w1, "sin"), _Mode(0, w1, "cos"),
            _Mode(0, w2, "sin"), _Mode(0, w2, "cos"),
            _Mode(0, w3, "sin"), _Mode(0, w3, "cos"),
        ]
    if f.degeneracy is Degeneracy.FULLY_DEGENERATE:
        return [
            _Mode(0, w1, "sin"), _Mode(0, w1, "cos"),
            _Mode(1, w1, "sin"), _Mode(1, w1, "cos"),
            _Mode(2, w1, "sin"), _Mode(2, w1, "cos"),
        ]
    # partially degenerate: the repeated pair, which holds w2, carries the t-modes
    wdist = w3 if w1 == w2 else w1
    return [
        _Mode(0, w2, "sin"), _Mode(0, w2, "cos"),
        _Mode(1, w2, "sin"), _Mode(1, w2, "cos"),
        _Mode(0, wdist, "sin"), _Mode(0, wdist, "cos"),
    ]


@dataclass(frozen=True)
class ExactSolution:
    """Mode decomposition matching an initial state at t = 0."""

    frequencies: FrequencyTriple
    modes: tuple[_Mode, ...]
    coefficients: np.ndarray

    def state(self, t: float) -> np.ndarray:
        return self.states(np.array([t]))[0]

    def _mode_sum(self, times, order: int) -> np.ndarray:
        """The order-th time derivative of q: the coefficient-weighted mode derivatives."""
        ts = np.asarray(times, dtype=float)
        acc = np.zeros_like(ts)
        for cf, mode in zip(self.coefficients, self.modes):
            if cf != 0.0:
                acc = acc + cf * mode.derivative(ts, order)
        return acc

    def states(self, times) -> np.ndarray:
        """State vectors (derivative orders 0..5) at the given times."""
        ts = np.asarray(times, dtype=float)
        return np.column_stack([self._mode_sum(ts, order) for order in range(DIM)])

    def sixth_derivative(self, times) -> np.ndarray:
        return self._mode_sum(times, DIM)

    def flow_residual(self, times, p: Optional[PUParams] = None) -> float:
        """max over times of ||ds/dt - F s|| / max(||s||), all derivatives analytic."""
        p = p or params_from_frequencies(self.frequencies)
        F = flow_operator(p)
        s = self.states(times)
        sdot = np.column_stack([s[:, 1:], self.sixth_derivative(times)])
        num = np.abs(sdot - s @ F.T).max()
        return float(num / max(np.abs(s).max(), 1e-300))


def solve_exact(f: FrequencyTriple, initial) -> ExactSolution:
    """Coefficients of the degeneracy-matched mode basis fitting the initial state."""
    s0 = as_state(initial)
    modes = _mode_basis(f)
    M = np.zeros((DIM, DIM))
    for col, mode in enumerate(modes):
        for order in range(DIM):
            M[order, col] = float(mode.derivative(0.0, order))
    try:
        coeffs = np.linalg.solve(M, s0)
    except np.linalg.LinAlgError as exc:
        raise SingularModeMatrix(
            f"mode matrix singular for {f}; degeneracy likely misclassified"
        ) from exc
    # row `order` of M grows like w1^order, so compare each row on its own scale
    rows = max(1.0, f.omegas[0]) ** np.arange(DIM)
    resid = (np.abs(M @ coeffs - s0) / rows).max()
    if resid > 1e-9 * max(1.0, (np.abs(s0) / rows).max()):
        raise SingularModeMatrix(f"mode matching residual {resid:.3e} too large for {f}")
    return ExactSolution(frequencies=f, modes=tuple(modes), coefficients=coeffs)


def divergent_mode_present(sol: ExactSolution) -> bool:
    """True when any t- or t^2-multiplied mode carries a coefficient above 1e-9 of the largest."""
    scale = max(1e-300, float(np.abs(sol.coefficients).max()))
    return any(
        m.power > 0 and abs(c) > 1e-9 * scale
        for m, c in zip(sol.modes, sol.coefficients)
    )


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionSpec:
    """Polynomial potential W applied to one derivative slot of the state.

    ``coefficients`` are ascending powers (c0 + c1 x + c2 x^2 + ...); the
    quartic helper builds lam/4 x^4.  Degree below 3 merely shifts the linear
    model and is rejected.
    """

    coefficients: tuple[float, ...]
    variable: int = 0

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", cs)
        degree = max((i for i, c in enumerate(cs) if c != 0.0), default=0)
        if degree < 3:
            raise ValueError(
                f"a genuine interaction needs polynomial degree >= 3, got degree {degree}"
            )
        if not 0 <= self.variable < DIM:
            raise ValueError(f"variable slot must be 0..5, got {self.variable}")

    @staticmethod
    def quartic(lam: float = 1.0, variable: int = 0) -> "InteractionSpec":
        return InteractionSpec(coefficients=(0.0, 0.0, 0.0, 0.0, lam / 4.0), variable=variable)

    def w1(self, x: float) -> float:
        return sum(i * c * x ** (i - 1) for i, c in enumerate(self.coefficients) if i >= 1)

    def w2(self, x: float) -> float:
        return sum(i * (i - 1) * c * x ** (i - 2) for i, c in enumerate(self.coefficients) if i >= 2)


def interaction_field(p: PUParams, w: InteractionSpec):
    """Right-hand side of ds/dt; the potential gradient enters the last slot."""
    F = flow_operator(p)
    slot = w.variable

    def field(s):
        out = F @ s
        out[DIM - 1] -= w.w1(s[slot])
        return out

    return field


def interaction_field_jacobian(p: PUParams, w: InteractionSpec, s) -> np.ndarray:
    """Pointwise Jacobian of the interacting field: F minus W'' in the last row."""
    sv = as_state(s)
    J = flow_operator(p)
    J[DIM - 1, w.variable] -= w.w2(sv[w.variable])
    return J


def lie_derivative_residual(jac: np.ndarray, j: PoissonTensor) -> np.ndarray:
    """Jac J + J Jac^T; zero iff the field is a bracket-preserving flow at this point."""
    return jac @ j.matrix + j.matrix @ jac.T


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    method: str  # "exact" | "rk4"

    def __post_init__(self):
        t = _read_only_field(self, "times")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        s = _read_only_field(self, "states", (t.size, DIM), "states must be (n_times, 6)")
        if not np.all(np.isfinite(s)):
            raise ValueError("trajectory states must be finite")


def step_count(t_end: float, dt: float) -> int:
    """The number of steps dt in t_end, at least one.

    Raises ValueError unless dt and t_end are positive and t_end / dt is
    finite and, to 1e-9 relative, a whole number of at least one; so a NaN
    or infinite dt or t_end is refused.  The message reads on from the
    caller's name ("simulate needs ...").
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError(f"needs dt > 0 and t_end > 0, got dt={dt}, t_end={t_end}")
    steps = t_end / dt
    if not 0.5 < steps < math.inf or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(
            f"needs t_end to be a whole, non-zero number of steps dt, got t_end/dt {steps:g}"
        )
    return int(round(steps))


_RK4_BLOCK = 128  # linear RK4 states filled from one state, at most
_RK4_GROWTH = 1.5  # a block ends where max|D_i| first exceeds this times i max|D_1|


def integrate_rk4(
    p: PUParams,
    initial,
    t_end: float,
    dt: float,
    interaction: Optional[InteractionSpec] = None,
) -> Trajectory:
    """Classical fixed-step fourth-order integration of the (possibly interacting) flow.

    Without an interaction the field is linear, so one step is the fixed
    increment s -> s + Q s with Q = sum_{k=1..4} (dt F)^k / k!, built once
    and applied a block of steps at a time (see ``_linear_rk4``).
    Deterministic for identical inputs; overflow raises instead of clamping,
    since divergent degenerate modes and unstable interactions are physical
    outcomes to report.
    """
    n_steps = step_count(t_end, dt)
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, DIM))
    s = as_state(initial)
    states[0] = s
    if interaction is None:
        _linear_rk4(_model_matrices(p)[2], dt, states)
        return Trajectory(times=times, states=states, method="rk4")
    field = interaction_field(p, interaction)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = field(s)
            k2 = field(s + 0.5 * dt * k1)
            k3 = field(s + 0.5 * dt * k2)
            k4 = field(s + dt * k3)
            s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(s)):
                raise NonFinite(f"state overflowed at t={times[k] + dt:.6g} (interaction term)")
            states[k + 1] = s
    return Trajectory(times=times, states=states, method="rk4")


def _linear_rk4(F: np.ndarray, dt: float, states: np.ndarray) -> None:
    """Fill states[1:] from states[0] by RK4 steps of ds/dt = F s, a block at a time.

    One step is s -> s + s Q^T.  The increments D_i = P^i - I of the powers
    of P = I + Q, i = 1.._RK4_BLOCK, are built by doubling,
    D_(k+i) = D_i + D_k + D_i D_k, so each carries the rounding of about
    log2(i) products; the block after state s_j is s_j + s_j D_i^T.  The
    increment form keeps the dt^4 terms out of the rounding of the identity.
    A block uses only the leading D_i with max|D_i| <= _RK4_GROWTH i max|D_1|
    (D_1 always): where the powers grow faster than linearly, as secular
    (t^k cos) and exponential modes make them, the rounding of a large D_i
    would be applied over and over, so those flows take shorter blocks;
    non-finite powers are never used.  s_j enters divided by a power of two
    (the one just above max|s_j|, at most 2^1023), which is exact and keeps
    the products s_j D_i^T from overflowing ahead of the state itself.
    Overflow is reported at the first step whose state, or the four-stage
    loop's stage sum k1 + 2k2 + 2k3 + k4 from its state, is non-finite; no
    stage can overflow from max|s| <= 2^1000 / (6c (1 + c dt)^3), c = max_i sum_j |F_ij|.
    """
    a = dt * F
    eye = np.eye(DIM)
    qt = (a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)).T
    powers = np.empty((_RK4_BLOCK, DIM, DIM))
    powers[0] = qt
    n = len(states) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = 1
        while m < _RK4_BLOCK:
            k = min(m, _RK4_BLOCK - m)
            powers[m:m + k] = powers[:k] + powers[m - 1] + powers[:k] @ powers[m - 1]
            m += k
        size = np.abs(powers).max(axis=(1, 2))
        linear = size <= _RK4_GROWTH * np.arange(1, _RK4_BLOCK + 1) * size[0]
        block = max(1, int(linear.cumprod().sum()))
        wide = powers[:block].transpose(1, 0, 2).reshape(DIM, block * DIM)  # D_i^T side by side
        for j in range(0, n, block):
            m = min(block, n - j)
            scale = math.ldexp(1.0, min(math.frexp(np.abs(states[j]).max())[1], 1023))
            u = states[j] / scale
            states[j + 1:j + 1 + m] = scale * (u + (u @ wide[:, :m * DIM]).reshape(m, DIM))
        c = np.abs(F).sum(axis=1).max()
        bound = 2.0 ** 1000 / (6.0 * c * (1.0 + c * dt) ** 3)
        if np.abs(states).max() <= bound:  # False on a NaN
            return
        rows = np.flatnonzero(np.abs(states[:-1]).max(axis=1) > bound)
        s, h = states[rows], 0.5 * dt
        k1 = s @ F.T
        k2 = (s + h * k1) @ F.T
        k3 = (s + h * k2) @ F.T
        k4 = (s + dt * k3) @ F.T
        bad = ~np.isfinite(states[1:]).all(axis=1)
        bad[rows] |= ~np.isfinite(k1 + 2.0 * k2 + 2.0 * k3 + k4).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFinite(f"state overflowed at t={k * dt + dt:.6g} (divergent degenerate mode)")


def exact_trajectory(sol: ExactSolution, t_end: float, dt: float) -> Trajectory:
    n_steps = step_count(t_end, dt)
    times = np.arange(n_steps + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        states = sol.states(times)
    _require_finite("state", times, states)
    return Trajectory(times=times, states=states, method="exact")


def _require_finite(what: str, times: np.ndarray, values: np.ndarray) -> None:
    """NonFinite naming ``what`` and the first time at which a row of ``values`` is not finite."""
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        raise NonFinite(f"{what} overflowed at t={times[np.argmax(bad)]:.6g}")


def conservation_drift(traj: Trajectory, forms: Sequence[QuadraticForm]) -> np.ndarray:
    """Per form, max_t |H(s(t)) - H(s(0))| / max(|H(s(0))|, floor)."""
    values = _form_values(traj.states, [h.matrix for h in forms])
    return np.array([float(np.abs(v - v[0]).max() / max(abs(v[0]), 1e-300)) for v in values])


_CSV_ROW = ",".join(["%.17g"] * 10) + "\n"
_CSV_BLOCK = 1024  # rows per write


def trajectory_hamiltonians(traj: Trajectory, p: PUParams) -> tuple[list, np.ndarray]:
    """H1..H3 along ``traj`` and their ``conservation_drift``, bit for bit (x / scale is monotone).

    NonFinite at the first time where an H, or its drift, is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hvals = _form_values(traj.states, _model_matrices(p)[1])
        drift = [(h - h[0]) / max(abs(h[0]), 1e-300) for h in hvals]  # conservation_drift's, per time
    _require_finite("H", traj.times, np.column_stack(hvals))
    _require_finite("H drift", traj.times, np.column_stack(drift))
    return hvals, np.array([np.abs(d).max() for d in drift])


def trajectory_csv(traj: Trajectory, hvals: Sequence[np.ndarray], stream) -> None:
    """Write t, the six state slots and the H columns ``hvals`` per row, to 17 digits.

    The rows are formatted in contiguous parts, one per usable CPU (see
    ``parallel.write_rows``), with the same bytes on any CPU count.
    """
    stream.write("t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3\n")
    table = np.column_stack([traj.times, traj.states, *hvals])

    def text(lo: int, hi: int) -> str:
        return (_CSV_ROW * (hi - lo)) % tuple(table[lo:hi].ravel().tolist())

    write_rows(stream, len(table), text, step=_CSV_BLOCK)
