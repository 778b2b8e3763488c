"""Tests for nice partitions and inductive factorization."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperarr import (
    Arrangement,
    boolean,
    chi,
    factorization,
    find_nice_partition,
    from_vectors,
    hyperpolygonal,
    is_inductively_factored,
    is_independent_partition,
    is_nice,
    is_supersolvable,
    poincare_block_sizes,
)
from hyperarr.arrangement import hyperplane_subspace
from hyperarr.exactlinalg import canonicalize, rank_of
from hyperarr.factorization import (
    _ifac_node,
    _is_nice_node,
    _restricted_blocks,
    canonical_partition,
)
from hyperarr.polynomials import evaluate, monic_linear_roots, multiply

import oracles


def poincare_coefficients(arr):
    c = chi(arr)
    ell = len(c) - 1
    return tuple((-1) ** j * c[ell - j] for j in range(ell + 1))


def test_poincare_block_sizes_examples(h2, h3, generic4):
    assert poincare_block_sizes(h2) == (1, 3)
    assert poincare_block_sizes(h3) == (1, 3, 3)
    assert poincare_block_sizes(generic4) is None


def test_poincare_block_sizes_match_poincare_roots(h2, h3, bool3):
    for arr in (h2, h3, bool3):
        sizes = poincare_block_sizes(arr)
        assert sizes is not None
        product = (1,)
        for s in sizes:
            product = multiply(product, (1, s))
        assert product == poincare_coefficients(arr)


def _reshuffled_block_sizes(arr):
    """The previous poincare_block_sizes: the roots of q(t) = chi(t) / t^(d - r),
    its coefficients reshuffled out of the Poincare polynomial."""
    c = chi(arr)
    r = arr.rank
    pi = [(-1) ** k * (c[arr.dim - k] if arr.dim - k < len(c) else 0) for k in range(r + 1)]
    roots = monic_linear_roots(tuple((-1) ** (r - j) * pi[r - j] for j in range(r + 1)))
    if roots is None or len(roots) != r or any(b < 1 for b in roots):
        return None
    return roots


def test_block_sizes_from_chi_roots_match_the_reshuffle():
    randoms = oracles.random_arrangements(300, seed=424242, max_dim=5, max_size=11)
    pool = [from_vectors(d, c) for d, c in randoms]
    pool += [hyperpolygonal(n) for n in range(1, 6)]
    pool.append(from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0)]))  # rank 2 in Q^4
    split = 0
    for arr in pool:
        sizes = poincare_block_sizes(arr)
        assert sizes == _reshuffled_block_sizes(arr)
        split += sizes is not None
    assert split == 161


def test_independent_partition_examples(h2, bool3):
    assert is_independent_partition(h2, ((0,), (1, 2, 3)))
    singles = tuple((i,) for i in range(len(bool3)))
    assert is_independent_partition(bool3, singles)
    assert is_independent_partition(h2, ())  # the empty transversal has rank 0
    dependent = from_vectors(2, [(1, 0), (0, 1), (1, 1)])
    assert not is_independent_partition(dependent, ((0,), (1,), (2,)))
    for bad in (((-1,), (3,)), ((0,), (1, 4))):
        with pytest.raises(IndexError):
            is_independent_partition(h2, bad)


def test_independent_partition_past_a_million_transversals():
    """Three blocks of 101 lines in the plane have 101^3 > 10^6 transversals,
    and the walk up the covers refutes them at the second block's first
    cover: three lines in the plane are dependent."""
    lines = from_vectors(2, [(1, i) for i in range(303)])
    blocks = tuple(tuple(range(k, k + 101)) for k in (0, 101, 202))
    assert not is_independent_partition(lines, blocks)
    assert is_independent_partition(lines, blocks[:2])


def _transversal_ranks_full(arr, blocks):
    """The product form: the rank of every transversal, one echelon each."""
    return all(
        rank_of([arr.covectors[i] for i in pick], arr.dim) == len(blocks)
        for pick in itertools.product(*blocks)
    )


def test_transversals_by_prefix_match_the_product_form():
    """is_independent_partition against the rank of every transversal, on
    random arrangements and H_2-H_4 with random disjoint blocks: partial
    covers of the hyperplanes, empty blocks and more blocks than the rank
    included.  A fresh arrangement starts from a lattice built only to the
    rank the walk reads."""
    rng = random.Random(1402)
    randoms = oracles.random_arrangements(150, seed=1403, max_dim=5, max_size=10)
    pool = [from_vectors(d, c) for d, c in randoms]
    pool += [from_vectors(n, hyperpolygonal(n).covectors) for n in (2, 3, 4) for _ in range(40)]
    outcomes = set()
    partial = empty = 0
    for arr in pool:
        for _ in range(3):
            m = len(arr)
            used = rng.sample(range(m), rng.randint(1, m))
            labels = [rng.randrange(rng.randint(1, arr.rank + 1)) for _ in used]
            blocks = [tuple(sorted(i for i, lb in zip(used, labels) if lb == b)) for b in sorted(set(labels))]
            if rng.random() < 0.1:
                blocks.insert(rng.randint(0, len(blocks)), ())
            blocks = tuple(blocks)
            product = _transversal_ranks_full(arr, blocks)
            assert is_independent_partition(arr, blocks) == product, (arr, blocks)
            outcomes.add(product)
            partial += len(used) < m
            empty += () in blocks
    assert outcomes == {True, False}
    assert partial >= 500 and empty >= 50


def test_is_nice_rejects_non_partitions(h2):
    assert not is_nice(h2, ((0,), (1, 2)))
    assert not is_nice(h2, ((0, 1), (1, 2, 3)))
    assert not is_nice(h2, ((0,), (), (1, 2, 3)))


def test_is_nice_examples(h2, h3):
    assert is_nice(h2, ((0,), (1, 2, 3)))
    assert is_nice(h3, ((0,), (1, 3, 4), (2, 5, 6)))
    assert is_nice(h3, ((2, 5, 6), (0,), (1, 3, 4)))
    single = from_vectors(2, [(1, 0)])
    assert is_nice(single, ((0,),))


def test_independent_but_not_nice(bool3):
    blocks = ((0, 1), (2,))
    assert is_independent_partition(bool3, blocks)
    assert not is_nice(bool3, blocks)


def test_find_nice_partition_small(h3, h4):
    status, parts = find_nice_partition(h3)
    assert status is True
    assert parts and parts[0] == ((0,), (1, 3, 4), (2, 5, 6))
    status4, parts4 = find_nice_partition(h4)
    assert status4 is False and parts4 == []
    status1, parts1 = find_nice_partition(hyperpolygonal(1))
    assert status1 is True and parts1 == [((0,),)]


def test_find_nice_partition_cap(monkeypatch, h5):
    monkeypatch.setattr(factorization, "PARTITION_CAP", 4)
    status, parts = find_nice_partition(h5)
    assert status == "undecided" and parts == []


def test_found_partitions_are_nice_with_predicted_sizes(h2, h3, bool3):
    for arr in (h2, h3, bool3):
        status, parts = find_nice_partition(arr, find_all=True)
        assert status is True
        predicted = poincare_block_sizes(arr)
        for blocks in parts:
            assert is_nice(arr, blocks)
            assert tuple(sorted(len(b) for b in blocks)) == predicted
            flat = sorted(i for b in blocks for i in b)
            assert flat == list(range(len(arr)))


def test_block_size_multiset_is_unique(h3):
    status, parts = find_nice_partition(h3, find_all=True)
    assert status is True and len(parts) > 1
    sizes = {tuple(sorted(len(b) for b in blocks)) for blocks in parts}
    assert sizes == {(1, 3, 3)}


def test_inductively_factored_ladder(h2, h3, h4):
    ok2, part2 = is_inductively_factored(h2)
    assert ok2 is True and part2 == ((0,), (1, 2, 3))
    ok3, part3 = is_inductively_factored(h3)
    assert ok3 is True and part3 == ((0,), (1, 3, 4), (2, 5, 6))
    ok4, part4 = is_inductively_factored(h4)
    assert ok4 is False and part4 is None


def test_inductively_factored_edge_cases(monkeypatch, h5):
    ok, part = is_inductively_factored(from_vectors(2, []))
    assert ok is True and part == ()
    monkeypatch.setattr(factorization, "PARTITION_CAP", 4)
    status, part5 = is_inductively_factored(h5)
    assert status == "undecided" and part5 is None


def test_poincare_evaluation_counts_regions(h2, h3):
    for arr in (h2, h3):
        pi = poincare_coefficients(arr)
        sizes = poincare_block_sizes(arr)
        value = evaluate(pi, Fraction(1))
        expected = 1
        for s in sizes:
            expected *= 1 + s
        assert value == expected


def test_inductive_factoredness_builds_no_lattice(monkeypatch, h3):
    from hyperarr import lattice

    lattice.universe(h3)
    cached = dict(lattice._universe_cache)
    built = []
    init = lattice.Universe.__init__

    def counted(self, arr, *args, **kwargs):
        built.append(arr)
        init(self, arr, *args, **kwargs)

    monkeypatch.setattr(lattice.Universe, "__init__", counted)
    assert is_inductively_factored(h3) == (True, ((0,), (1, 3, 4), (2, 5, 6)))
    # every pair is a (flat, mask) node of H_3's cached lattice
    assert built == []
    assert lattice._universe_cache == cached


# -- the recursion on sub-arrangements, as it was before it moved onto nodes --


def _old_restrict_with_traces(arr, h0):
    subspace = hyperplane_subspace(arr.covectors[h0], arr.dim)
    out, traces = {}, {}
    for i, c in enumerate(arr.covectors):
        local = [sum(ci * ri for ci, ri in zip(c, row)) for row in subspace.rows]
        if any(local):
            traces[i] = out.setdefault(canonicalize(local), len(out))
    return Arrangement(subspace.dim, tuple(out)), traces


def _old_is_nice(arr, blocks, lattice):
    if sorted(i for b in blocks for i in b) != list(range(len(arr))) or any(not b for b in blocks):
        return False
    if not _transversal_ranks_full(arr, blocks):
        return False
    uni = lattice(arr)
    masks = [sum(1 << i for i in b) for b in blocks]
    return all(
        any((uni.bits[f] & bm).bit_count() == 1 for bm in masks)
        for f in range(1, uni.flat_count())
    )


def _old_ifac_pair(arr, blocks, memo, lattice, node, seen):
    """The old recursion.  node = (uni, x, pre) places the pair on the master
    lattice: the flat x and, per hyperplane of arr, the root hyperplanes that
    restrict to it.  The new node checks are compared at every pair and step,
    and their outcomes are collected in seen."""
    if len(arr) == 0:
        return True
    key = (arr.covectors, blocks)
    if key in memo:
        return memo[key]
    memo[key] = False
    uni, x, pre = node
    mask = sum(pre)

    def reps(b):
        return sum(pre[i] & -pre[i] for i in b)

    nice = _old_is_nice(arr, blocks, lattice)
    assert _is_nice_node(uni, x, mask, [reps(b) for b in blocks]) == nice
    seen.add(("nice", nice))
    if not nice:
        return False
    if len(arr) == 1:
        memo[key] = True
        return True
    for bi, block in enumerate(blocks):
        other = [i for b2i, b2 in enumerate(blocks) if b2i != bi for i in b2]
        others = [reps(b2) for b2i, b2 in enumerate(blocks) if b2i != bi]
        for h0 in block:
            restricted, tmap = _old_restrict_with_traces(arr, h0)
            images = [tmap[i] for i in other if i in tmap]
            bijective = len(set(images)) == len(other) == len(images) == len(restricted)
            e0 = next(g for g, p in uni.node_elements(x, mask) if p & pre[h0])
            got = _restricted_blocks(uni, e0, mask, others)
            seen.add(("bijective", bijective))
            if not bijective:
                assert got is None
                continue
            rpre = [0] * len(restricted)
            for i, j in tmap.items():
                rpre[j] |= pre[i]
            rblocks = [[tmap[i] for i in b2] for b2i, b2 in enumerate(blocks) if b2i != bi]
            assert got == [sum(rpre[j] & -rpre[j] for j in b) for b in rblocks]
            dblocks = [[i if i < h0 else i - 1 for i in b2 if i != h0] for b2 in blocks]
            deletion = (uni, x, pre[:h0] + pre[h0 + 1 :])
            if _old_ifac_pair(
                arr.delete(h0), canonical_partition(b for b in dblocks if b), memo, lattice, deletion, seen
            ) and _old_ifac_pair(
                restricted, canonical_partition(rblocks), memo, lattice, (uni, e0, rpre), seen
            ):
                memo[key] = True
                return True
    return False


def _signed_pairs(n, coordinates):
    vecs = [tuple(int(i == j) for j in range(n)) for i in range(n)] if coordinates else []
    for i, j in itertools.combinations(range(n), 2):
        for s in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, s
            vecs.append(tuple(v))
    return from_vectors(n, vecs)


def test_node_recursion_matches_the_sub_arrangement_recursion(h4):
    """Every pair decides as the old recursion on rebuilt deletions and
    restrictions: each nice partition and random partitions, on seeded
    subarrangements of H_4, B_3, B_4 and D_4.  At every pair and step the
    old recursion visits, the niceness test and the trace map read on the
    node agree with the rebuilt ones."""
    from hyperarr.lattice import Universe, mask_of, universe

    rng = random.Random(20261018)
    bases = (h4, _signed_pairs(3, True), _signed_pairs(4, True), _signed_pairs(4, False))
    outcomes = set()
    seen = set()
    factored_not_supersolvable = 0
    for base in bases:
        for _ in range(14):
            m = len(base)
            arr = base.subset(sorted(rng.sample(range(m), rng.randint(2, min(m, 12)))))
            status, parts = find_nice_partition(arr, find_all=True)
            if status is not True:
                parts = []
            for _ in range(3):
                labels = [rng.randrange(arr.rank + 1) for _ in range(len(arr))]
                parts.append(
                    canonical_partition(
                        [i for i, lb in enumerate(labels) if lb == b] for b in set(labels)
                    )
                )
            lattices = {}

            def lattice(a):
                if a not in lattices:
                    lattices[a] = Universe(a)
                return lattices[a]

            uni = universe(arr)
            root = (uni, 0, [1 << i for i in range(len(arr))])
            old_memo, new_memo = {}, {}
            for p in parts:
                old = _old_ifac_pair(arr, p, old_memo, lattice, root, seen)
                new = _ifac_node(uni, 0, uni._full_mask, [mask_of(b) for b in p], new_memo)
                assert new == old, (arr, p)
                outcomes.add(new)
            if is_inductively_factored(arr)[0] is True and not is_supersolvable(arr)[0]:
                factored_not_supersolvable += 1
    assert outcomes == {True, False}
    assert seen == {("nice", True), ("nice", False), ("bijective", True), ("bijective", False)}
    assert factored_not_supersolvable > 0
