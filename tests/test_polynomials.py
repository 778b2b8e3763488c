from hyperarr.polynomials import (
    add,
    evaluate,
    format_poly,
    monic_linear_roots,
    multiply,
    trim,
)
from oracles import degree, from_roots, subtract


def test_trim_strips_leading_zeros_only():
    assert trim([1, 2, 0, 0]) == (1, 2)
    assert trim([0, 0]) == (0,)
    assert trim([]) == (0,)


def test_arithmetic():
    assert add((1, 2), (3,)) == (4, 2)
    assert subtract((1, 2), (1, 2)) == (0,)
    assert multiply((1, 1), (1, 1)) == (1, 2, 1)
    assert multiply((0,), (5, 7)) == (0,)


def test_evaluate_and_degree():
    p = (3, -4, 1)  # (t-1)(t-3)
    assert evaluate(p, 1) == 0 and evaluate(p, 3) == 0
    assert evaluate(p, -1) == 8
    assert degree(p) == 2
    assert degree((7,)) == 0


def test_from_roots_round_trips_with_monic_linear_roots():
    for roots in [(1, 3), (1, 3, 3), (1, 3, 3, 5), (1, 5, 5, 5, 5), (0, 0, 2)]:
        p = from_roots(roots)
        assert monic_linear_roots(p) == tuple(sorted(roots))


def test_monic_linear_roots_rejects_non_splitting():
    # t^2 + 1 and t^2 - 3t + 3 have no integer roots
    assert monic_linear_roots((1, 0, 1)) is None
    assert monic_linear_roots((3, -3, 1)) is None
    # non-monic input never certifies
    assert monic_linear_roots((2, 4)) is None
    # negative roots are not exponents
    assert monic_linear_roots(from_roots((-1, 2))) is None


def test_format_poly():
    assert format_poly((3, -4, 1)) == "t^2 - 4t + 3"
    assert format_poly((0, 1)) == "t"
    assert format_poly((0,)) == "0"
    assert format_poly((1, 1), var="q") == "q + 1"


def _scan_linear_roots(p):
    """The previous root finder: every b from 1 up to the sum of |coefficients|."""
    p = list(trim(p))
    if not p or p[-1] != 1:
        return None
    roots = []
    while len(p) > 1 and p[0] == 0:
        roots.append(0)
        p = p[1:]
    bound = sum(abs(c) for c in p)
    b = 1
    while len(p) > 1 and b <= bound:
        if evaluate(p, b) == 0:
            q = [0] * (len(p) - 1)
            carry = p[-1]
            for i in range(len(p) - 2, -1, -1):
                q[i] = carry
                carry = p[i] + carry * b
            p = q
            roots.append(b)
        else:
            b += 1
    return None if len(p) > 1 else tuple(sorted(roots))


def test_monic_linear_roots_matches_full_scan():
    import random

    rng = random.Random(3)
    polys = []
    for _ in range(60):
        roots = [rng.choice((0, 1, 1, 2, 3, 4, 5, 6, 7, 9)) for _ in range(rng.randint(1, 5))]
        p = from_roots(roots)
        polys.append(p)
        if rng.random() < 0.5:
            roots[rng.randrange(len(roots))] = -rng.randint(1, 3)
            polys.append(from_roots(roots))
        bumped = list(p)
        bumped[rng.randrange(len(p) - 1)] += rng.choice((-2, -1, 1, 2))
        polys.append(tuple(bumped))
        polys.append(multiply(p, (rng.randint(1, 5), 0, 1)))  # times t^2 + c: never splits
    split = 0
    for p in polys:
        assert monic_linear_roots(p) == _scan_linear_roots(p)
        split += monic_linear_roots(p) is not None
    assert 0 < split < len(polys)
