import random
from fractions import Fraction
from itertools import combinations

from dualgraph.intmat import charpoly, charpoly_inertia, det_bareiss, smith_normal_form


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
