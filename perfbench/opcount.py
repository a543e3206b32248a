"""Computed operation counts for one RK4 step and one scan cell (hpc sheet).

The counts follow the program's code path operation by operation: a 6x6
matrix-vector product is 2*36 flops, a 6x6 matrix product 2*216, an
elementwise op on a 6-vector or 6x6 matrix one flop per element.  LAPACK
kernels use textbook costs: ``eigh`` with eigenvectors about 9 n^3
(symmetric QR), the SVD-based ``lstsq`` of an m x n system 4 m n^2 + 8 n^3
(Golub & Van Loan, Matrix Computations, 4th ed., 5.5.9 and 8.3).  Bytes
count every operand an operation reads and the result it writes, in
float64, as if nothing stayed in registers.  Python scalar arithmetic is
left out.  These are computed, not measured; dividing them by measured time
gives the achieved rate.
"""
from __future__ import annotations

F8 = 8
VEC = 6 * F8  # one state vector
MAT = 36 * F8  # one 6x6 matrix

# (what, times per unit, flops each, bytes each)
RK4_STEP = (
    ("field F @ s", 4, 2 * 36, MAT + 2 * VEC),
    ("stage a * k (3 stages)", 3, 6, 2 * VEC),
    ("stage s + a k (3 stages)", 3, 6, 3 * VEC),
    ("combine 2 k2, 2 k3, dt/6 (...)", 3, 6, 2 * VEC),
    ("combine four adds and s + ...", 4, 6, 3 * VEC),
    ("isfinite check", 1, 0, VEC),
    ("store the row", 1, 0, 2 * VEC),
)
QUARTIC_EXTRA = (
    ("W'(q) polynomial, 4 terms", 4, 4, 0),
    ("last slot update", 4, 1, 2 * F8),
)
SCAN_CELL = (
    # hierarchy.coeffs_from_tensor
    ("J_k assembly: scale, J - J^T, symmetrise", 3, 4 * 36, 4 * 3 * MAT),
    ("Jbar = sum c_k J_k", 6, 36, 3 * MAT),
    ("H_k assembly: symmetrise", 3, 2 * 36, 2 * 3 * MAT),
    ("Jbar @ H_k", 3, 2 * 216, 3 * MAT),
    ("lstsq 36x3", 1, 4 * 36 * 9 + 8 * 27, 2 * (36 * 3 + 36 + 3) * F8),
    ("residual cols @ sol - F", 1, 2 * 108 + 2 * 36, (108 + 3 * 36) * F8),
    # positivity_verdict, eigenvalue route
    ("H_k rebuilt for the combined form", 3, 2 * 36, 2 * 3 * MAT),
    ("Abar = sum c_k H_k, symmetrised", 1, 6 * 36 + 2 * 36, 8 * 3 * MAT),
    ("eigh 6x6 with vectors", 1, 9 * 216, 3 * MAT),
    ("prefactors and polynomials (3 evaluations)", 3, 3 * 6, 3 * F8),
)


def totals(rows) -> tuple:
    """(flops, bytes) per unit."""
    return (sum(n * f for _, n, f, _ in rows), sum(n * b for _, n, _, b in rows))


def rk4_step(interacting: bool) -> tuple:
    flops, nbytes = totals(RK4_STEP)
    if interacting:
        extra = totals(QUARTIC_EXTRA)
        flops, nbytes = flops + extra[0], nbytes + extra[1]
    return flops, nbytes


def scan_cell() -> tuple:
    return totals(SCAN_CELL)
