"""The pencil's two members against a closed form that needs no moves.

Take a member whose near discriminant is a, with b the pair's other
exponent.  Read in certificate order, its near part has weights
-HJ(a / (a - b^-1 mod a)) and its far part -HJ(a / (b mod a)), where
HJ(a/q) = [c1, c2, ...] is the Hirzebruch-Jung expansion
a/q = c1 - 1/(c2 - ...) with every ci >= 2.  When a is 1 both parts are
empty.  The expansion is integer Euclid alone: no graph, no move and no
lattice code, so it checks the move engine from outside.
"""

import pytest

from dualgraph.resolution import CuspPair, coprime_pairs, theorem_pipeline


def hirzebruch_jung(a, q):
    out = []
    while q:
        c = -(-a // q)
        out.append(c)
        a, q = q, c * q - a
    return out


def closed_form(a, b):
    if a == 1:
        return [], []
    return hirzebruch_jung(a, a - pow(b, -1, a)), hirzebruch_jung(a, b % a)


def test_hirzebruch_jung_expansion():
    assert hirzebruch_jung(7, 3) == [3, 2, 2]  # 7/3 = 3 - 1/(2 - 1/2)
    assert hirzebruch_jung(7, 4) == [2, 4]
    assert hirzebruch_jung(5, 1) == [5]
    assert closed_form(1, 9) == ([], [])


def members(n, m):
    cert = theorem_pipeline(CuspPair(n, m))
    assert cert.passed
    g = cert.graph
    for role, a, b in ((cert.fiber_one, n, m), (cert.fiber_two, m, n)):
        near = [-g.weight(v) for v in role.near_part]
        far = [-g.weight(v) for v in role.far_part]
        yield (near, far), closed_form(a, b)


def test_every_pair_up_to_80():
    checked = 0
    for pair in coprime_pairs(1, 80):
        if pair.transversal:
            continue
        for got, want in members(pair.n, pair.m):
            assert got == want, (pair, got, want)
            checked += 1
    assert checked == 3930


@pytest.mark.parametrize("n, m", [(k + 1, k) for k in (250, 500, 1000)]
                         + [(2 * k + 1, 2) for k in (500, 1000, 2000)])
def test_large_pairs(n, m):
    # (1001, 1000) and (4001, 2) resolve to about 2000 vertices
    for got, want in members(n, m):
        assert got == want, (n, m)
