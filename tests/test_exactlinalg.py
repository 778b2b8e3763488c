import math
import random
from fractions import Fraction

import pytest

from hyperarr import from_vectors, hyperpolygonal
from hyperarr.exactlinalg import (
    IntEchelon,
    SubspaceBasis,
    canonicalize,
    primitive_kernel_basis,
    rank_of,
)
from hyperarr.lattice import build_lattice, restriction

import oracles


def test_canonicalize_primitive_and_sign():
    assert canonicalize((2, 4, -6)) == (1, 2, -3)
    assert canonicalize((-1, 2)) == (1, -2)
    assert canonicalize((0, -3, 9)) == (0, 1, -3)
    assert canonicalize((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)


def test_canonicalize_idempotent_and_scale_invariant():
    rng = random.Random(7)
    for _ in range(200):
        v = [rng.randint(-5, 5) for _ in range(4)]
        if not any(v):
            continue
        c = canonicalize(v)
        assert canonicalize(c) == c
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            q = -q
        assert canonicalize([q * x for x in v]) == c


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize((0, 0, 0))


def test_complementary_sign_vectors_canonicalize_identically():
    # in width 3: +x2 - x1 - x3 versus +x1 - x2 + x3 are negatives
    a = canonicalize((-1, 1, -1))
    b = canonicalize((1, -1, 1))
    assert a == b


def test_rank_of_examples():
    assert rank_of([(1, 0), (0, 1), (1, 1)], 2) == 2
    assert rank_of([], 3) == 0
    # four rank-3 sign-sum normals in width 6
    four = [
        (1, -1, -1, -1, -1, -1),
        (1, 1, 1, -1, -1, -1),
        (1, -1, -1, 1, 1, -1),
        (1, 1, 1, 1, 1, -1),
    ]
    assert rank_of(four, 6) == 3
    assert oracles.frac_rank(four) == 3


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        assert rank_of(rows, n) == oracles.frac_rank(rows)


def test_echelon_add_reports_growth_and_membership():
    ech = IntEchelon(3)
    assert ech.add((1, 0, 0)) is True
    assert ech.add((2, 0, 0)) is False
    assert ech.add((0, 1, 1)) is True
    assert ech.contains((3, 2, 2))
    assert not ech.contains((0, 0, 1))
    assert ech.rank == 2


def test_kernel_basis_is_exact_annihilator():
    rows = [(1, 1, 0, 0), (0, 0, 1, -1)]
    basis = primitive_kernel_basis(rows, 4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_rref_uniqueness_under_row_shuffles():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 5)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        a = SubspaceBasis.from_vectors(vecs, n)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        mixed = [[2 * x for x in shuffled[0]]] + shuffled[1:] if shuffled else shuffled
        b = SubspaceBasis.from_vectors(mixed, n)
        assert a == b
        assert hash(a) == hash(b)


# -- differential check against the replaced Fraction routines -----------------


def _old_canonicalize(vector):
    """The previous canonicalize: through Fraction for every entry."""
    fracs = [Fraction(x) for x in vector]
    if all(f == 0 for f in fracs):
        raise ValueError("zero covector does not define a hyperplane")
    denom_lcm = 1
    for f in fracs:
        d = f.denominator
        denom_lcm = denom_lcm * d // math.gcd(denom_lcm, d)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def _old_rref(rows, n):
    """The previous reduced row echelon form over Q (unit pivots)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    out = []
    col = 0
    while mat and col < n:
        pivot_row = None
        for r in mat:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        mat.remove(pivot_row)
        inv = pivot_row[col]
        pivot_row = [x / inv for x in pivot_row]
        for r in mat:
            if r[col]:
                f = r[col]
                for i in range(n):
                    r[i] -= f * pivot_row[i]
        for r in out:
            if r[col]:
                f = r[col]
                for i in range(n):
                    r[i] -= f * pivot_row[i]
        out.append(pivot_row)
        col += 1
    out.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return out


def _old_primitive_kernel_basis(rows, n):
    """The previous kernel basis, read from the Fraction RREF."""
    rref = _old_rref(rows, n)
    pivots = [next(i for i, x in enumerate(row) if x) for row in rref]
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[free]
        basis.append(_old_canonicalize(v))
    return basis


def _old_restrict(covectors, subspace_vectors, n):
    """The previous restrict_to_subspace: Fraction dot products with the RREF
    rows of the subspace, merged in first-seen order."""
    rows = _old_rref(subspace_vectors, n)
    out = []
    for c in covectors:
        local = [sum(Fraction(ci) * ri for ci, ri in zip(c, row)) for row in rows]
        if all(x == 0 for x in local):
            continue
        lc = _old_canonicalize(local)
        if lc not in out:
            out.append(lc)
    return len(rows), tuple(out)


def _random_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 8))]


def test_subspace_rows_are_the_old_rref_times_one_denominator():
    seen_denominator = 0
    spaces = {}
    for n, rows in _random_matrices(31, 400):
        new = SubspaceBasis.from_vectors(rows, n)
        old = _old_rref(rows, n)
        assert new.dim == len(old)
        d = new.rows[0][next(i for i, x in enumerate(new.rows[0]) if x)] if old else 1
        assert [[Fraction(x, d) for x in r] for r in new.rows] == old
        # D is the least common denominator of the old rows
        assert d == math.lcm(*(x.denominator for r in old for x in r))
        seen_denominator += d > 1
        key = (n, tuple(tuple(r) for r in old))
        if key in spaces:
            assert spaces[key] == new and hash(spaces[key]) == hash(new)
        for other_key, other in spaces.items():
            if other_key[0] == n:
                assert (other == new) == (other_key == key)
        spaces.setdefault(key, new)
    assert seen_denominator >= 50


def test_kernel_basis_matches_the_fraction_route():
    for n, rows in _random_matrices(37, 400):
        assert primitive_kernel_basis(rows, n) == _old_primitive_kernel_basis(rows, n)


def test_restrictions_on_every_flat_match_the_fraction_route():
    arrs = [hyperpolygonal(n) for n in range(1, 6)]
    arrs += [from_vectors(d, covs) for d, covs in
             oracles.random_arrangements(40, seed=43, max_dim=5, max_size=9)]
    checked = 0
    for arr in arrs:
        for flat in build_lattice(arr).flats():
            if not flat.dim:
                continue  # the centre of an essential arrangement
            got = restriction(arr, flat)
            members = [arr.covectors[i] for i in flat.contains]
            kernel = _old_primitive_kernel_basis(members, arr.dim)
            assert (got.dim, got.covectors) == _old_restrict(arr.covectors, kernel, arr.dim)
            checked += 1
    assert checked >= 900


def test_canonicalize_matches_the_fraction_route_on_mixed_input():
    rng = random.Random(41)
    for _ in range(500):
        v = [rng.randint(-6, 6) if rng.random() < 0.5 else Fraction(rng.randint(-6, 6), rng.randint(1, 7))
             for _ in range(rng.randint(1, 6))]
        if not any(v):
            with pytest.raises(ValueError):
                canonicalize(v)
            continue
        assert canonicalize(v) == _old_canonicalize(v)


def test_canonicalize_rejects_non_rational_input():
    with pytest.raises(TypeError):
        canonicalize((1.5, 1))
    with pytest.raises(TypeError):
        canonicalize((1, "2"))
