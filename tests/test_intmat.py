import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from dualgraph.graph import build_graph, intersection_matrix
from dualgraph.intmat import charpoly, det_bareiss, smith_normal_form, sparse_smith_form
from dualgraph.lattice import smith_invariants


def charpoly_inertia(c):
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


def symmetric_signature(rows):
    """Inertia of a symmetric matrix from its Berkowitz charpoly. Oracle only."""
    return charpoly_inertia(charpoly(rows))


def det_naive(rows):
    """Cofactor expansion, exact via Fraction-free ints. Oracle only."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_naive(minor)
        total += term if j % 2 == 0 else -term
    return total


def bareiss_discriminant(g, selection=None):
    """det(-Q) by the dense Bareiss kernel, which the forest pass never calls."""
    return det_bareiss([[-x for x in row] for row in intersection_matrix(g, selection)])


def determinantal_factors(rows):
    """Invariant factors d_k = D_k / D_(k-1), where D_k is the gcd of all
    k x k minors (D_0 = 1), by Bareiss. Oracle only.

    Once some D_k is 0 every later one is too, and those d_k are 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors, before = [], 1
    for k in range(1, min(m, n) + 1):
        divisor = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                divisor = gcd(divisor, det_bareiss([[rows[i][j] for j in ci] for i in ri]))
        factors.append(divisor // before if divisor else 0)
        before = divisor or 1
    return factors


def reference_smith_normal_form(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix, by dense
    least-entry rounds. Oracle only.

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
    diag = []
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


def watch_least_entry_rounds(monkeypatch):
    """A list that gets, for each least-entry round of sparse_smith_form,
    copies of the non-empty rows the round scans; the call that finds no
    entry left adds nothing."""
    namespace = sparse_smith_form.__globals__
    step = namespace["_least_entry_round"]
    rounds = []

    def watched(row, col, waiting, heap, chain):
        live = [dict(row[i]) for i in waiting if row[i]]
        if live:
            rounds.append(live)
        return step(row, col, waiting, heap, chain)

    monkeypatch.setitem(namespace, "_least_entry_round", watched)
    return rounds


def random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_small_known():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


def test_det_zero_pivot_needs_swap():
    m = [[0, 2, 1], [1, 0, 0], [3, 1, 1]]
    assert det_bareiss(m) == det_naive(m)


def test_det_matches_cofactor_oracle():
    rng = random.Random(101)
    for n in range(0, 7):
        for _ in range(40):
            m = random_matrix(rng, n)
            assert det_bareiss(m) == det_naive(m)


def test_charpoly_known():
    assert charpoly([]) == [1]
    assert charpoly([[5]]) == [1, -5]
    assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]
    # companion matrix of x^3 - 2x - 5
    comp = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert charpoly(comp) == [1, 0, -2, -5]


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(25):
            m = random_matrix(rng, n)
            c = charpoly(m)
            assert len(c) == n + 1
            assert c[0] == 1
            assert c[n] == (-1) ** n * det_naive(m)
            # trace check
            assert c[1] == -sum(m[i][i] for i in range(n))


def test_charpoly_coefficients_are_signed_principal_minor_sums():
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(15):
            m = random_matrix(rng, n, -4, 4)
            c = charpoly(m)
            for k in range(1, n + 1):
                want = 0
                for idx in combinations(range(n), k):
                    sub = [[m[i][j] for j in idx] for i in idx]
                    want += det_naive(sub)
                assert (-1) ** k * c[k] == want


def eig_signature_oracle(m):
    """Inertia by congruence diagonalization over Fractions. Oracle only."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    plus = minus = zero = 0
    idx = list(range(n))
    while idx:
        # find nonzero diagonal entry, else nonzero off-diagonal pair
        k = next((i for i in idx if a[i][i] != 0), None)
        if k is None:
            pair = None
            for i in idx:
                for j in idx:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(idx)
                break
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            k = i
        d = a[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        idx.remove(k)
        for i in idx:
            f = a[i][k] / d
            if f:
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return plus, zero, minus


def test_signature_known():
    assert symmetric_signature([]) == (0, 0, 0)
    assert symmetric_signature([[0]]) == (0, 1, 0)
    assert symmetric_signature([[-2, 1], [1, -2]]) == (0, 0, 2)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 0, 1)
    assert symmetric_signature([[2, 0], [0, 0]]) == (1, 1, 0)


def test_signature_matches_congruence_oracle():
    rng = random.Random(23)
    for n in range(1, 7):
        for _ in range(30):
            m = random_matrix(rng, n, -3, 3)
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
            assert symmetric_signature(m) == eig_signature_oracle(m)


def test_smith_known():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0]]) == [0]
    assert smith_normal_form([[-2, 1], [1, -2]]) == [1, 3]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_smith_orders_a_diagonal_that_is_no_divisibility_chain():
    # each round splits one entry off as it is; only the merge into the
    # divisibility chain reorders them, with the zeros kept last
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[0, 0, 0], [0, 3, 0], [0, 0, 2]]) == [1, 6, 0]
    isolated = build_graph([(v, -2) for v in range(300)], [])
    assert smith_invariants(isolated).invariant_factors == (2,) * 300


def test_smith_divisibility_and_det():
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(30):
            m = random_matrix(rng, n, -5, 5)
            d = smith_normal_form(m)
            assert len(d) == n
            assert all(x >= 0 for x in d)
            for a, b in zip(d, d[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0
                # zeros only at the tail
                if a == 0:
                    assert b == 0
            det = det_naive(m)
            prod = 1
            for x in d:
                if x:
                    prod *= x
            if det != 0:
                assert 0 not in d and prod == abs(det)
            else:
                assert 0 in d


def test_sparse_smith_form_matches_the_dense_oracle(monkeypatch):
    # rectangular, empty, with zero rows and columns, and entries from one
    # digit to twelve; Q = [[2, 3], [3, 2]] holds no unit to pivot on
    rounds = watch_least_entry_rounds(monkeypatch)
    rng = random.Random(1993)
    cases = [[[2, 3], [3, 2]], [], [[]], [[], []], [[0, 0], [0, 0], [0, 0]]]
    for _ in range(2000):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        zeros, hi = rng.random(), rng.choice((2, 6, 40, 10 ** 12))
        rows = [[0 if rng.random() < zeros else rng.randint(-hi, hi) for _ in range(n)]
                for _ in range(m)]
        for _ in range(rng.choice((0, 0, 1, 2))):  # zero a row or a column
            if rows and rows[0] and rng.random() < 0.5:
                j = rng.randrange(n)
                for r in rows:
                    r[j] = 0
            elif rows:
                rows[rng.randrange(m)] = [0] * n
        cases.append(rows)
    needed_a_round = []
    for rows in cases:
        rounds.clear()
        assert smith_normal_form(rows) == reference_smith_normal_form(rows), rows
        assert all(1 not in map(abs, r.values()) for seen in rounds for r in seen)
        needed_a_round.append(len(rounds) > 0)
    assert smith_normal_form([[2, 3], [3, 2]]) == [1, 5]
    assert needed_a_round[0] and sum(needed_a_round) >= 100
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    # entries are read by operator.index: a float is refused, not truncated
    with pytest.raises(TypeError):
        smith_normal_form([[2.5]])
    with pytest.raises(TypeError):
        det_bareiss([[2.5, 1], [1, 2]])
    with pytest.raises(TypeError):
        charpoly([[0.9]])


def test_determinantal_oracle_known():
    assert determinantal_factors([]) == []
    assert determinantal_factors([[0, 0], [0, 0]]) == [0, 0]
    assert determinantal_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert determinantal_factors([[2, 0, 0], [0, 3, 0]]) == [1, 6]
    assert determinantal_factors([[4], [6]]) == [2]
    assert determinantal_factors([[4, 0], [0, 6]]) == [2, 12]


def test_smith_matches_determinantal_divisors():
    # square and rectangular, at most 6 rows; a per-matrix share of zeros
    # makes singular matrices and trailing zero factors common
    rng = random.Random(1987)
    singular = 0
    for _ in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        zeros = rng.random()
        rows = [[0 if rng.random() < zeros else rng.randint(-6, 6) for _ in range(n)]
                for _ in range(m)]
        want = determinantal_factors(rows)
        assert smith_normal_form(rows) == want
        singular += 0 in want
    assert singular > 100
