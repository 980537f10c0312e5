import itertools
import random

import pytest

from drinfeld_towers import linalg
from drinfeld_towers.field import make_field

OPS5 = make_field(5, 1, 1)._bops


def test_rref_identity_fixed_point():
    rows = ((1, 0), (0, 1))
    red, pivots = linalg.rref(rows, OPS5)
    assert red == rows and pivots == (0, 1)


def test_rref_normalizes_and_eliminates():
    red, pivots = linalg.rref(((2, 4), (1, 2)), OPS5)
    assert red == ((1, 2),) and pivots == (0,)


def test_rref_canonical_regardless_of_row_order():
    a, _ = linalg.rref(((1, 2, 3), (4, 0, 1)), OPS5)
    b, _ = linalg.rref(((4, 0, 1), (1, 2, 3)), OPS5)
    assert a == b


def _apply(rows, v, ops):
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, v):
            acc = ops.add(acc, ops.mul(a, b))
        out.append(acc)
    return tuple(out)


def test_nullspace_members_annihilate():
    rows = ((1, 2, 3), (2, 4, 1))
    for v in linalg.solve(rows, (0, 0), OPS5)[1]:
        assert _apply(rows, v, OPS5) == (0, 0)


def test_nullspace_dimension():
    assert len(linalg.solve(((1, 1, 1),), (0,), OPS5)[1]) == 2
    assert linalg.solve(((1, 0), (0, 1)), (0, 0), OPS5)[1] == ()


def test_solve_consistent():
    rows = ((1, 2), (3, 4))
    sol, _ = linalg.solve(rows, (4, 2), OPS5)
    assert _apply(rows, sol, OPS5) == (4, 2)


def test_solve_inconsistent():
    assert linalg.solve(((1, 1), (2, 2)), (1, 3), OPS5) is None


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (5, 1), (2, 2)], ids=["F2", "F3", "F5", "F4"])
def test_solve_matches_brute_force(p, e):
    """part + span(kernel basis) is exactly {v : rows . v = rhs}; None iff empty."""
    ops = make_field(p, e, 1)._bops
    q = ops.size
    rng = random.Random(p * 10 + e)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = tuple(tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(nrows))
        if rng.random() < 0.5:  # half the systems consistent by construction
            rhs = _apply(rows, tuple(rng.randrange(q) for _ in range(ncols)), ops)
        else:
            rhs = tuple(rng.randrange(q) for _ in range(nrows))
        brute = {v for v in itertools.product(range(q), repeat=ncols) if _apply(rows, v, ops) == rhs}
        sol = linalg.solve(rows, rhs, ops)
        if sol is None:
            assert brute == set()
            continue
        part, basis = sol
        found = []
        for coeffs in itertools.product(range(q), repeat=len(basis)):
            v = part
            for c, b in zip(coeffs, basis):
                v = tuple(ops.add(x, ops.mul(c, y)) for x, y in zip(v, b))
            found.append(v)
        assert len(found) == len(set(found))  # the basis is independent
        assert set(found) == brute
