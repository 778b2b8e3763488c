"""Tests for formality, line closure, generation closure, and uniqueness witnesses."""

import pytest

from hyperarr import (
    boolean,
    canonicalize,
    from_vectors,
    gen_closure,
    hyperpolygonal,
    is_formal,
    is_lc_basis,
    is_matroid_connected,
    line_closure,
    projective_uniqueness_witness,
    relation_space_dim,
)

import oracles


def natural_seed(n, size):
    return tuple(range(n - 1)) + (n, size - 1)


def test_relation_space_dim(h2, bool3, generic4):
    assert relation_space_dim(bool3) == 0
    assert relation_space_dim(h2) == 2
    assert relation_space_dim(generic4) == 1
    assert relation_space_dim(from_vectors(2, [(1, 0)])) == 0


def test_is_formal(h2, h3, h4, h5, h6, bool3, generic4):
    for arr in (h2, h3, h4, h5, h6, bool3, boolean(4)):
        assert is_formal(arr)
    assert not is_formal(generic4)


def test_line_closure_examples(h3):
    closure, rounds = line_closure(h3, (0, 1, 3))
    assert closure == tuple(range(7))
    assert rounds == ((4, 5), (2, 6))
    assert line_closure(h3, (2,))[0] == (2,)
    assert line_closure(h3, (0, 1, 2))[0] == (0, 1, 2)


def test_line_closure_operator_laws(h4):
    seeds = [(0,), (0, 1), (0, 1, 4), (2, 5, 7), (0, 1, 2, 4)]
    for seed in seeds:
        closure, _ = line_closure(h4, seed)
        assert set(seed) <= set(closure)
        again, _ = line_closure(h4, closure)
        assert again == closure
    small, _ = line_closure(h4, (0, 1))
    large, _ = line_closure(h4, (0, 1, 4))
    assert set(small) <= set(large)


def test_lc_basis(h2, h3, h4, h5):
    for n, arr in ((2, h2), (3, h3), (4, h4), (5, h5)):
        assert is_lc_basis(arr, tuple(range(n - 1)) + (n,))
    assert not is_lc_basis(h3, (0, 1))
    assert not is_lc_basis(h3, (0, 3, 4))
    assert not is_lc_basis(h3, (0, 1, 2))


def test_gen_closure_trivial_and_errors(h3):
    g = gen_closure(h3, range(7))
    assert g.generated == tuple(range(7)) and g.rounds == () and g.complete
    single = gen_closure(boolean(2), (0,))
    assert single.generated == (0,) and single.complete
    with pytest.raises(IndexError):
        gen_closure(h3, (0, 99))


def test_gen_closure_natural_seed_coverage(h3, h4, h5):
    for n, arr in ((3, h3), (4, h4), (5, h5)):
        g = gen_closure(arr, natural_seed(n, len(arr)))
        assert g.complete
        assert g.generated == tuple(range(len(arr)))


def test_gen_closure_natural_seed_fails_in_rank_two(h2):
    g = gen_closure(h2, natural_seed(2, len(h2)))
    assert g.complete
    assert g.generated == (0, 2, 3)
    assert len(g.generated) < len(h2)


def test_gen_closure_round_trace(h3, h4):
    g3 = gen_closure(h3, (0, 1, 3, 6))
    assert g3.rounds == ((4, 5), (2,))
    g4 = gen_closure(h4, (0, 1, 2, 4, 11))
    assert g4.rounds == ((5, 6, 7, 8, 9, 10), (3,))


def test_gen_closure_idempotent_and_monotone(h4):
    g = gen_closure(h4, (0, 1, 2, 4, 11))
    again = gen_closure(h4, g.generated)
    assert again.generated == g.generated and again.rounds == ()
    assert set(g.seed) <= set(g.generated)


def test_gen_closure_cap_is_sound(h4):
    g = gen_closure(h4, natural_seed(4, len(h4)), exact_current_cap=3)
    assert not g.complete
    exact = gen_closure(h4, natural_seed(4, len(h4)))
    assert set(g.generated) <= set(exact.generated)


def test_sign_sum_members_from_construction_forms():
    for n in range(2, 8):
        arr = hyperpolygonal(n)
        m = len(arr)
        alpha = arr.covectors[n]
        beta = arr.covectors[m - 1]
        coords = [arr.covectors[i] for i in range(n - 1)]
        produced = set()
        for mask in range(1 << (n - 1)):
            members = [i for i in range(n - 1) if mask >> i & 1]
            via_alpha = tuple(
                -a + 2 * sum(coords[i][t] for i in members) for t, a in enumerate(alpha)
            )
            rest = [j for j in range(n - 1) if j not in members]
            via_beta = tuple(
                b - 2 * sum(coords[j][t] for j in rest) for t, b in enumerate(beta)
            )
            assert via_alpha == via_beta
            produced.add(canonicalize(via_alpha))
        assert produced == set(arr.covectors[n:])


def test_matroid_connected(h2, h3, h4, bool3, generic4):
    for arr in (h2, h3, h4, generic4):
        assert is_matroid_connected(arr, range(len(arr)))
    assert not is_matroid_connected(bool3, range(3))
    assert not is_matroid_connected(h3, (0, 1))


def test_projective_uniqueness_witness(h2, h3, h4, bool3):
    st3, w3 = projective_uniqueness_witness(h3)
    assert st3 is True and w3.indices == (0, 1, 3, 6)
    assert w3.closure.generated == tuple(range(len(h3)))
    st4, w4 = projective_uniqueness_witness(h4)
    assert st4 is True and w4.indices == (0, 1, 2, 4, 11)
    assert len(w4.indices) == 5
    assert projective_uniqueness_witness(h2) == (False, None)
    assert projective_uniqueness_witness(bool3) == (False, None)


def test_projective_uniqueness_witness_input_contract():
    with pytest.raises(ValueError):
        projective_uniqueness_witness(from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
    with pytest.raises(ValueError):
        projective_uniqueness_witness(
            from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        )


# -- differential check of the exact generation step ---------------------------------


def _fraction_spans_exact(arr, current, h):
    """The previous exact step: Fraction kernels of every sub-lattice flat,
    keeping those orthogonal to h, then the rank of their union."""
    from hyperarr import SubspaceBasis, build_lattice

    sub = arr.subset(current)
    vectors = []
    for flat in build_lattice(sub).flats():
        rows = [sub.covectors[i] for i in flat.contains]
        if rows:
            basis = SubspaceBasis.from_vectors(rows, arr.dim).kernel()
        else:
            basis = SubspaceBasis.full(arr.dim)
        if all(sum(x * y for x, y in zip(arr.covectors[h], row)) == 0 for row in basis.rows):
            vectors.extend(basis.rows)
    return oracles.frac_rank(vectors) == arr.dim - 1


def _reference_gen_closure(arr, seed):
    current = set(seed)
    rounds = []
    while True:
        entered = [
            h for h in range(len(arr))
            if h not in current and _fraction_spans_exact(arr, sorted(current), h)
        ]
        if not entered:
            return tuple(sorted(current)), tuple(rounds)
        rounds.append(tuple(entered))
        current |= set(entered)


def test_gen_closure_matches_fraction_reference():
    import random

    rng = random.Random(11)
    cases = []
    for d, covs in oracles.random_arrangements(30, seed=47, max_size=8):
        arr = from_vectors(d, covs)
        for _ in range(2):
            cases.append((arr, tuple(rng.sample(range(len(arr)), min(len(arr), arr.rank + 1)))))
    for n in range(2, 6):
        arr = hyperpolygonal(n)
        cases.append((arr, natural_seed(n, len(arr))))
        if n in (3, 4):
            cases.append((arr, tuple(range(n + 1))))
            for _ in range(4):
                cases.append((arr, tuple(sorted(rng.sample(range(len(arr)), n + 1)))))
    grew = 0
    for arr, seed in cases:
        g = gen_closure(arr, seed)
        assert g.complete
        assert (g.generated, g.rounds) == _reference_gen_closure(arr, seed)
        grew += bool(g.rounds)
    assert grew >= 5  # the comparison must include closures that add hyperplanes
