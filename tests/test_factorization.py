"""Tests for nice partitions and inductive factorization."""

from fractions import Fraction

import pytest

from hyperarr import (
    boolean,
    chi,
    find_nice_partition,
    from_vectors,
    hyperpolygonal,
    is_inductively_factored,
    is_independent_partition,
    is_nice,
    poincare_block_sizes,
)
from hyperarr.polynomials import evaluate, multiply


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


def test_independent_partition_examples(h2, bool3):
    assert is_independent_partition(h2, ((0,), (1, 2, 3)))
    singles = tuple((i,) for i in range(len(bool3)))
    assert is_independent_partition(bool3, singles)
    dependent = from_vectors(2, [(1, 0), (0, 1), (1, 1)])
    assert not is_independent_partition(dependent, ((0,), (1,), (2,)))


def test_independent_partition_transversal_cap(h2):
    with pytest.raises(RuntimeError):
        is_independent_partition(h2, ((0,), (1, 2, 3)), transversal_cap=2)


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


def test_find_nice_partition_cap(h5):
    status, parts = find_nice_partition(h5, search_cap=4)
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


def test_inductively_factored_edge_cases(h5):
    ok, part = is_inductively_factored(from_vectors(2, []))
    assert ok is True and part == ()
    status, part5 = is_inductively_factored(h5, search_cap=4)
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


def test_inductive_factoredness_builds_each_sub_lattice_once(monkeypatch, h3):
    from hyperarr import factorization, lattice

    lattice.universe(h3)
    cached = set(lattice._universe_cache)
    built = []

    def counted(arr):
        built.append(arr)
        return lattice.Universe(arr)

    monkeypatch.setattr(factorization, "Universe", counted)
    assert is_inductively_factored(h3)[0] is True
    # the root's lattice comes from the cache; each sub-arrangement's is
    # built once for the call, however many partitions meet it
    assert len(built) >= 10 and h3 not in built
    assert len(built) == len(set(built))
    assert set(lattice._universe_cache) == cached
