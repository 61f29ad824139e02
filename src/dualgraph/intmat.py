"""Exact integer matrix kernel.

Everything here works over plain Python ints (arbitrary precision) and never
touches floats: determinants via fraction-free elimination, characteristic
polynomials via a division-free recurrence, and Smith normal form by
least-entry diagonalization and a gcd/lcm sweep.

The package itself calls only smith_normal_form, and only on the small
residue that lattice.py's unit pivots leave, which holds no entry +-1.
Determinants and inertia come from the sparse passes in lattice.py, and
the dense kernels here are their independent oracles in the tests, which
read an inertia off charpoly themselves.

Matrices are lists of equal-length lists.  The empty matrix [] is legal and
behaves as the 0x0 matrix (determinant 1, characteristic polynomial [1]).
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence

Matrix = Sequence[Sequence[int]]


def det_bareiss(rows: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Intermediate divisions are exact, so the result is a plain int with no
    rounding anywhere.  Row swaps flip the tracked sign.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def charpoly(rows: Matrix) -> List[int]:
    """Coefficients [1, c1, ..., cn] of det(x*I - A), by Berkowitz.

    Division-free, so it is exact over the integers.  The sum of all k x k
    principal minors of A equals (-1)**k * c_k.
    """
    n = len(rows)
    if n == 0:
        return [1]
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != n:
            raise ValueError("charpoly needs a square matrix")
    coeffs = [1, -a[0][0]]
    for s in range(1, n):
        # Extend from the leading s x s block to (s+1) x (s+1).
        row = a[s][:s]
        col = [a[j][s] for j in range(s)]
        block = [a[i][:s] for i in range(s)]
        toe = [1, -a[s][s]]
        vec = col
        for k in range(2, s + 2):
            toe.append(-_dot(row, vec))
            if k != s + 1:
                vec = [_dot(block[i], vec) for i in range(s)]
        new = [0] * (s + 2)
        for j in range(s + 2):
            acc = 0
            lo = max(0, j - len(coeffs) + 1)
            for k in range(lo, min(j, len(toe) - 1) + 1):
                acc += toe[k] * coeffs[j - k]
            new[j] = acc
        coeffs = new
    return coeffs


def smith_normal_form(rows: Matrix) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns the full diagonal, nonnegative, with trailing zeros kept, so the
    length is min(#rows, #cols).  The product of the nonzero entries equals
    |det| for a nonsingular square matrix.

    Two stages.  Each round moves the least nonzero entry of the trailing
    block to (t, t) and reduces its column by row operations and its row by
    column operations, taking floor quotients, so every step is unimodular
    and leaves remainders smaller than the pivot; a round that leaves one
    repeats on the new least entry.  The resulting diagonal is then made a
    divisibility chain by replacing each pair (a, b) with (gcd, lcm), since
    diag(a, b) and diag(gcd(a, b), lcm(a, b)) are equivalent over Z.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    diag: List[int] = []
    t = 0
    while t < min(m, n):
        piv = _min_entry(a, t, m, n)
        if piv is None:
            break  # the trailing block is zero
        i, j = piv
        a[t], a[i] = a[i], a[t]
        if j != t:
            for r in a:
                r[t], r[j] = r[j], r[t]
        p = a[t][t]
        clear = True
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                for jj in range(t, n):
                    a[i][jj] -= q * a[t][jj]
            clear = clear and not a[i][t]
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                for ii in range(t, m):
                    a[ii][j] -= q * a[ii][t]
            clear = clear and not a[t][j]
        if clear:
            diag.append(abs(p))
            t += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (min(m, n) - len(diag))


def _min_entry(a, t, m, n):
    best = None
    piv = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(a[i][j])
            if v and (best is None or v < best):
                best, piv = v, (i, j)
    return piv
