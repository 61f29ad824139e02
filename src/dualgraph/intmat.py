"""Exact integer matrix kernel, on plain Python ints and never floats.

The package's one Smith elimination is sparse_smith_form, run on the sparse
rows of Q by lattice.py and on a dense matrix by smith_normal_form.  It
builds its own column mirror, and _subtract writes each update to both.
Its oracle, the dense least-entry kernel, lives in the tests.  Bareiss
determinants and Berkowitz characteristic polynomials are the tests'
oracles for the sparse passes in lattice.py; no package module calls them.

Matrices are lists of equal-length lists of ints, read by operator.index, so
a float raises TypeError.  The empty matrix [] is legal and behaves as the
0x0 matrix (determinant 1, characteristic polynomial [1]).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import index
from typing import Dict, List, Sequence

Matrix = Sequence[Sequence[int]]


def det_bareiss(rows: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Intermediate divisions are exact, so the result is a plain int with no
    rounding anywhere.  Row swaps flip the tracked sign.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(index, r)) for r in rows]
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
    a = [list(map(index, r)) for r in rows]
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
    """Invariant factors d_1 | d_2 | ... of an integer matrix, by sparse_smith_form:
    the full diagonal, nonnegative, trailing zeros kept, so min(#rows, #cols)
    long; the nonzero ones multiply to |det| for a nonsingular square matrix."""
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    return sparse_smith_form([{j: x for j, x in enumerate(map(index, r)) if x} for r in rows], n)


def sparse_smith_form(row: List[Dict[int, int]], n: int) -> List[int]:
    """smith_normal_form of the matrix with n columns whose row i maps each
    column to its nonzero entry.  Consumes row; builds its own column mirror.

    Each step takes the shortest row r that holds a unit a = q_rc (a lazy
    heap keyed by row length), in it the unit whose column is shortest
    (Markowitz), and runs a round's column half on it: row i -= q_ic a row r
    (1/a = a) clears column c, then row r and column c go, splitting off a 1
    (Dumas, Saunders and Villard, J. Symb. Comp. 32, 2001).  With no unit
    left, a _least_entry_round runs; it splits off a divisibility chain.
    """
    col: List[Dict[int, int]] = [{} for _ in range(n)]
    for i, r in enumerate(row):
        for j, x in r.items():
            col[j][i] = x
    heap = [(len(r), i) for i, r in enumerate(row)]
    heapify(heap)
    ones = 0
    chain: List[int] = []
    waiting = set()  # live rows last seen holding no unit
    while True:
        while heap:
            k, r = heappop(heap)
            if row[r] is None or len(row[r]) != k:
                continue  # stale: a changed row was pushed again
            units = [c for c, x in row[r].items() if x in (1, -1)]
            if not units:
                waiting.add(r)
                continue  # an update that can give it a unit pushes it again
            c = min(units, key=lambda j: len(col[j]))
            prow, a = row[r], row[r][c]
            for i, x in list(col[c].items()):
                if i != r:
                    _subtract(row, col, i, prow, x * a)
                    heappush(heap, (len(row[i]), i))
            for j in prow:
                del col[j][r]
            row[r] = col[c] = None
            waiting.discard(r)
            ones += 1
        if not _least_entry_round(row, col, waiting, heap, chain):
            break
    return [1] * ones + chain + [0] * (min(len(row), n) - ones - len(chain))


def _subtract(lines, mirror, i, src, q):
    """lines[i] -= q * src, on sparse lines that drop their zeros; mirror
    holds the same entries transposed and is kept equal."""
    li = lines[i]
    for j, y in src.items():
        v = li.get(j, 0) - q * y
        if v:
            li[j] = mirror[j][i] = v
        elif j in li:
            del li[j], mirror[j][i]


def _least_entry_round(row, col, waiting, heap, chain):
    """Reduce the least |entry| p = q_rc of the rows in waiting, which hold
    every entry and no unit, so p is at least 2.  Ties go to the least
    Markowitz count (len(row) - 1) * (len(col) - 1), and a 2 whose count is
    at most 1 ends the scan.  Column c is reduced by row operations, then
    row r by column operations, by floor quotients, which leave remainders
    below |p|; the changed rows that now hold a unit go on the heap.  Once
    r and c hold only p, they go, and |p| joins the chain from the top: a
    slot keeps the lcm of itself and the carry, and the gcd carries down
    until the slot below divides it.  False if there is no entry."""
    least = cost = 0
    for i in waiting:
        ri = row[i]
        k = len(ri) - 1
        for j, x in ri.items():
            a = abs(x)
            if not least or a < least or a == least and k * (len(col[j]) - 1) < cost:
                least, cost, r, c = a, k * (len(col[j]) - 1), i, j
        if least == 2 and cost <= 1:
            break
    if not least:
        return False
    prow, pcol = row[r], col[c]
    p = prow[c]
    touched = list(pcol)
    for i, x in list(pcol.items()):
        q = x // p
        if q and i != r:
            _subtract(row, col, i, prow, q)
    for j, y in list(prow.items()):
        q = y // p
        if q and j != c:
            _subtract(col, row, j, pcol, q)
    if len(prow) == len(pcol) == 1:
        row[r] = col[c] = None
        waiting.discard(r)
        k = len(chain)
        while k and least % chain[k - 1]:
            g = gcd(chain[k - 1], least)
            chain[k - 1], least = chain[k - 1] // g * least, g
            k -= 1
        chain.insert(k, least)
    for i in touched:
        ri = row[i]
        if ri is not None and (1 in ri.values() or -1 in ri.values()):
            heappush(heap, (len(ri), i))
    return True
