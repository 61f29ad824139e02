"""Exact integer matrix kernel.

Everything here works over plain Python ints (arbitrary precision) and never
touches floats: determinants via fraction-free elimination, characteristic
polynomials via a division-free recurrence, Smith normal form via gcd
reduction, and inertia of symmetric matrices via exact root counting.

The package itself calls only smith_normal_form, and only on the small
residue that lattice.py's unit pivots leave, which holds no entry +-1.
Determinants and inertia come from the sparse passes in lattice.py, and
the dense kernels here are their independent oracles in the tests.

Matrices are lists of equal-length lists.  The empty matrix [] is legal and
behaves as the 0x0 matrix (determinant 1, characteristic polynomial [1]).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def charpoly_inertia(c: Sequence[int]) -> Tuple[int, int, int]:
    """Inertia of a symmetric matrix read off its characteristic polynomial.

    Exact: the eigenvalue-zero count is the multiplicity of the root 0 of the
    characteristic polynomial, and the positive count is the number of
    coefficient sign changes, which is sharp for real-rooted polynomials.
    """
    n = len(c) - 1
    zero = 0
    while zero < n and c[n - zero] == 0:
        zero += 1
    reduced = c[: n - zero + 1]
    signs = [1 if x > 0 else -1 for x in reduced if x != 0]
    plus = sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    return plus, zero, (n - zero) - plus


def smith_normal_form(rows: Matrix) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns the full diagonal, nonnegative, with trailing zeros kept, so the
    length is min(#rows, #cols).  The product of the nonzero entries equals
    |det| for a nonsingular square matrix.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    diag: List[int] = []
    t = 0
    while t < m and t < n:
        piv = _min_entry(a, t, m, n)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for r in a:
                    r[t], r[j] = r[j], r[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    for jj in range(t, n):
                        a[i][jj] -= q * a[t][jj]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    for ii in range(t, m):
                        a[ii][j] -= q * a[ii][t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                piv = _min_cross(a, t, m, n)
                continue
            p = a[t][t]
            fold = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        fold = i
                        break
                if fold is not None:
                    break
            if fold is None:
                break
            # Entry not divisible by the pivot: pull that row up and rerun.
            for jj in range(t, n):
                a[t][jj] += a[fold][jj]
            piv = _min_cross(a, t, m, n)
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def _min_entry(a, t, m, n):
    best = None
    piv = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(a[i][j])
            if v and (best is None or v < best):
                best, piv = v, (i, j)
    return piv


def _min_cross(a, t, m, n):
    best = None
    piv = None
    for i in range(t, m):
        v = abs(a[i][t])
        if v and (best is None or v < best):
            best, piv = v, (i, t)
    for j in range(t, n):
        v = abs(a[t][j])
        if v and (best is None or v < best):
            best, piv = v, (t, j)
    return piv
