import functools
import itertools

import pytest

from hyperarr import (
    boolean,
    build_lattice,
    chi,
    find_generic_rank3_localization,
    from_vectors,
    hyperpolygonal,
    is_generic,
    is_supersolvable,
    localization,
    modular_flat_indices,
    restriction,
    zaslavsky_region_count,
)
from hyperarr.lattice import bit_indices, universe
from hyperarr.polynomials import from_roots

import oracles


# -- lattice construction ------------------------------------------------------


def test_flat_counts_small(h2, bool3):
    assert build_lattice(h2).counts_by_rank() == [1, 4, 1]  # V, 4 lines, {0}
    assert len(build_lattice(h2).flats()) == 6
    assert len(build_lattice(bool3).flats()) == 8


def test_flats_match_brute_force_oracle(h2, h3, bool3, generic4):
    for arr in (h2, h3, bool3, generic4):
        engine = {frozenset(f.contains) for f in build_lattice(arr).flats()}
        assert engine == oracles.brute_flat_sets(arr.covectors)


def test_h4_rank_profile_matches_d4(h4, d4_reflection):
    assert build_lattice(h4).counts_by_rank() == build_lattice(d4_reflection).counts_by_rank()


def test_lattice_json_shape(h2):
    doc = build_lattice(h2).to_json_dict()
    assert doc["schema"] == "hyperarr/lattice-v1"
    assert doc["full"] is True
    assert len(doc["flats"]) == 6
    top = [f for f in doc["flats"] if f["rank"] == 2]
    assert len(top) == 1 and top[0]["contains"] == [0, 1, 2, 3] and top[0]["mobius"] == 3


# -- characteristic polynomials --------------------------------------------------


def test_chi_fixed_values(h2, h3, h4, h5):
    assert chi(h2) == from_roots((1, 3))
    assert chi(h3) == from_roots((1, 3, 3))
    assert chi(h4) == from_roots((1, 3, 3, 5))
    assert chi(h5) == from_roots((1, 5, 5, 5, 5))


def test_chi_empty_arrangement():
    from hyperarr import Arrangement

    empty = Arrangement(2, ())
    assert chi(empty) == (0, 0, 1)  # t^2


def test_chi_matches_whitney_oracle(h2, h3, bool3, generic4):
    for arr in (h2, h3, bool3, generic4):
        assert chi(arr) == oracles.whitney_chi(arr.dim, arr.covectors)


def test_mobius_alternates_in_sign(h3, generic4):
    for arr in (h3, generic4):
        for f in build_lattice(arr).flats():
            assert (-1) ** f.rank * f.mobius > 0


def test_mobius_matches_brute_poset_oracle(h2, generic4):
    for arr in (h2, generic4):
        flats = oracles.brute_flat_sets(arr.covectors)
        mob = oracles.brute_mobius(flats)
        for f in build_lattice(arr).flats():
            assert mob[frozenset(f.contains)] == f.mobius


# -- localization / restriction ---------------------------------------------------


def test_localization_at_center_is_whole_arrangement(h3):
    lat = build_lattice(h3)
    center = next(f for f in lat.flats() if f.dim == 0)
    assert localization(h3, center) == h3


def test_localization_at_hyperplane_is_singleton(h3):
    lat = build_lattice(h3)
    f = lat.flat_by_contains([2])
    assert localization(h3, f).covectors == (h3.covectors[2],)


def test_localization_lattice_is_lower_interval(h4):
    lat = build_lattice(h4)
    some_rank2 = [f for f in lat.flats() if f.rank == 2][3]
    loc = localization(h4, some_rank2)
    below = [f for f in lat.flats() if set(f.contains) <= set(some_rank2.contains)]
    assert len(build_lattice(loc).flats()) == len(below)


def test_restriction_chi_satisfies_deletion_restriction(h3):
    from hyperarr import triple
    from hyperarr.polynomials import subtract

    for idx in range(len(h3)):
        full, deleted, restricted = triple(h3, idx)
        assert chi(full) == subtract(chi(deleted), chi(restricted))


def test_restriction_lattice_invariant_under_coordinate_change(h3):
    lat = build_lattice(h3)
    f = next(fl for fl in lat.flats() if fl.rank == 1)
    base_profile = build_lattice(restriction(h3, f)).counts_by_rank()
    m = [(1, 1, 0), (0, 1, 0), (1, 0, 1)]  # invertible
    mapped = from_vectors(
        3,
        [tuple(sum(c[k] * m[k][j] for k in range(3)) for j in range(3)) for c in h3.covectors],
    )
    lat2 = build_lattice(mapped)
    f2 = next(fl for fl in lat2.flats() if fl.rank == 1)
    assert build_lattice(restriction(mapped, f2)).counts_by_rank() == base_profile


# -- modularity and supersolvability -----------------------------------------------


def test_every_flat_of_the_rank2_member_is_modular(h2):
    assert len(modular_flat_indices(h2)) == 6


def test_trivial_flats_always_modular(h3, generic4, bool3):
    for arr in (h3, generic4, bool3):
        uni = universe(arr)
        lat = build_lattice(arr)
        modular = set(modular_flat_indices(arr))
        assert 0 in modular  # ambient space
        for f in lat.flats():
            if f.rank == 1 or f.rank == arr.rank:
                assert f.index in modular
        assert len(modular) <= uni.flat_count()


def test_no_modular_lines_in_generic_rank3(generic4):
    lat = build_lattice(generic4)
    modular = set(modular_flat_indices(generic4))
    for f in lat.flats():
        if f.rank == 2:
            assert f.index not in modular


def test_supersolvability(h2, h3, bool3):
    ok, witness_chain = is_supersolvable(h2)
    assert ok is True
    assert [len(step) for step in witness_chain] == [0, 1, 4]
    assert is_supersolvable(h3) == (False, None)
    ok_b, chain_b = is_supersolvable(bool3)
    assert ok_b is True and len(chain_b) == 4


def test_supersolvable_chain_is_nested_and_modular(bool3, h2):
    for arr in (bool3, h2):
        ok, witness_chain = is_supersolvable(arr)
        assert ok
        lat = build_lattice(arr)
        modular = {tuple(lat.flats()[i].contains) for i in modular_flat_indices(arr)}
        prev: set[int] = set()
        for rank, step in enumerate(witness_chain):
            assert prev <= set(step)
            assert lat.flat_by_contains(step).rank == rank
            assert tuple(step) in modular
            prev = set(step)


# -- generic localizations ----------------------------------------------------------


def test_generic_rank3_localization_examples(h2, h5, h6):
    assert find_generic_rank3_localization(h2) is None  # rank too small
    assert find_generic_rank3_localization(h5) is None
    flat = find_generic_rank3_localization(h6)
    assert flat is not None
    loc = localization(h6, flat)
    assert len(loc) >= 4 and loc.rank == 3
    assert is_generic(loc.subset(range(len(loc)))) or is_generic(loc)


def test_generic_rank3_localization_scan_pins_no_sub_lattice(h6):
    from hyperarr import lattice

    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        flat = find_generic_rank3_localization(h6)
        assert flat is not None and flat.mobius != 0
        assert set(lattice._universe_cache) == {h6}
    finally:
        lattice._universe_cache.clear()
        lattice._universe_cache.update(saved)


def test_explicit_four_sign_sum_localization_in_h6(h6):
    # the four sign-sum hyperplanes with I = {1}, {1,2,3}, {1,4,5}, {1,..,5}
    def form(I):
        return tuple(1 if i + 1 in I else -1 for i in range(6))

    idxs = [h6.index_of(form(I)) for I in ({1}, {1, 2, 3}, {1, 4, 5}, {1, 2, 3, 4, 5})]
    lat = build_lattice(h6, up_to_rank=3)
    flat = lat.flat_by_contains(idxs)
    assert flat.rank == 3
    assert sorted(flat.contains) == sorted(idxs)  # exactly those four
    assert is_generic(localization(h6, flat))


# -- region counts ------------------------------------------------------------------


def test_zaslavsky_count(h2, h3, bool3):
    assert zaslavsky_region_count(h2) == 8
    assert zaslavsky_region_count(h3) == 32
    assert zaslavsky_region_count(bool3) == 8


# -- differential checks of the rewritten layers ------------------------------------
#
# The build groups canonical traces, joins walk the cover table, and Moebius
# values come from Weisner's theorem.  Each is checked against tests/oracles.py
# and, for the build, against a local copy of the closure-by-membership build
# it replaced, which must give the same flat ids, cover table and parents.


def _differential_pool():
    randoms = oracles.random_arrangements(16, seed=31, max_size=7)
    pool = [from_vectors(d, covs) for d, covs in randoms] + [hyperpolygonal(n) for n in range(1, 6)]
    # the braid arrangement x_i - x_j in Q^5: rank 4 with modular flats of every rank
    pairs = itertools.combinations(range(5), 2)
    return pool + [from_vectors(5, [tuple((k == i) - (k == j) for k in range(5)) for i, j in pairs])]


@functools.cache
def _brute_flats(covectors):
    return oracles.brute_flat_sets(covectors)


def _membership_build(arr):
    """The previous build: every (flat, hyperplane) closure by m membership tests."""
    from hyperarr.exactlinalg import IntEchelon

    m = len(arr)
    bits, rank, T, parents, by_rank = [0], [0], [[-1] * m], [[]], [[0]]
    basis = [IntEchelon(arr.dim)]
    index = {0: 0}
    for k in range(arr.rank):
        nxt = []
        for f in by_rank[k]:
            for h in range(m):
                if T[f][h] != -1 or (bits[f] >> h) & 1:
                    continue
                ech = basis[f].copy()
                ech.add(arr.covectors[h])
                nb = bits[f]
                for j in range(m):
                    if ech.contains(arr.covectors[j]):
                        nb |= 1 << j
                g = index.get(nb)
                if g is None:
                    g = index[nb] = len(bits)
                    bits.append(nb)
                    rank.append(k + 1)
                    basis.append(ech)
                    T.append([-1] * m)
                    parents.append([])
                    nxt.append(g)
                parents[g].append(f)
                for j in range(m):
                    if (nb >> j) & 1 and not (bits[f] >> j) & 1:
                        T[f][j] = g
        by_rank.append(nxt)
    return bits, rank, T, parents, by_rank


def _node_flat_sets(arr, x_bits, mask):
    """Closures of x + S over every subset S of mask, by Fraction rank."""
    covs = arr.covectors
    base = [i for i in range(len(arr)) if (x_bits >> i) & 1]
    free = [i for i in range(len(arr)) if (mask >> i) & 1 and not (x_bits >> i) & 1]
    out = set()
    for k in range(len(free) + 1):
        for sub in itertools.combinations(free, k):
            rows = [covs[i] for i in base + list(sub)]
            r = oracles.frac_rank(rows)
            closed = (i for i in range(len(arr)) if oracles.frac_rank(rows + [covs[i]]) == r)
            out.add(frozenset(closed))
    return out


def test_trace_grouped_build_matches_membership_build_and_oracle():
    for arr in _differential_pool():
        uni = universe(arr)
        bits, rank, T, parents, by_rank = _membership_build(arr)
        assert uni.bits == bits and uni.rank == rank
        assert uni.T == T and uni.parents == parents
        assert uni.by_rank == [lv for lv in by_rank if lv]
        if len(arr) <= 8:  # the subset sweep takes 18 s on H_4's 12 hyperplanes
            engine = {frozenset(f.contains) for f in build_lattice(arr).flats()}
            assert engine == _brute_flats(arr.covectors)


def test_weisner_mobius_matches_brute_oracle_on_random_nodes():
    import random

    rng = random.Random(5)
    for arr in _differential_pool():
        uni = universe(arr)
        for _ in range(4):
            x = rng.randrange(uni.flat_count())
            outside = [h for h in range(len(arr)) if not (uni.bits[x] >> h) & 1]
            picked = rng.sample(outside, min(len(outside), rng.randint(0, 5)))
            mask = sum(1 << h for h in picked)
            order, mob = uni.node_mobius(x, mask)
            sets = _node_flat_sets(arr, uni.bits[x], mask)
            assert {frozenset(bit_indices(uni.bits[f])) for f in order} == sets
            brute = oracles.brute_mobius(sets)
            for f, mu in zip(order, mob):
                assert brute[frozenset(bit_indices(uni.bits[f]))] == mu


def _brute_modular_sets(arr, flats):
    @functools.cache
    def r(s):
        return oracles.frac_rank([arr.covectors[i] for i in s])

    return {
        x
        for x in flats
        if all(r(x) + r(y) == r(x | y) + r(x & y) for y in flats)
    }


def _brute_supersolvable(arr, modular):
    def extend(x, k):
        if k == arr.rank:
            return True
        return any(
            x < y and oracles.frac_rank([arr.covectors[i] for i in y]) == k + 1 and extend(y, k + 1)
            for y in modular
        )

    return extend(frozenset(), 0)


def test_modular_flats_and_supersolvability_match_brute_rank_formula():
    # rank 4 is the first rank where joins take more than one cover step
    pool = [arr for arr in _differential_pool() if len(arr) <= 8 or arr.rank == 4] + [boolean(4)]
    for arr in pool:
        lat = build_lattice(arr)
        engine = {frozenset(lat.flats()[i].contains) for i in modular_flat_indices(arr)}
        if len(arr) <= 8:
            flats = _brute_flats(arr.covectors)
        else:  # the build test checks these flat sets against the previous build
            flats = {frozenset(f.contains) for f in lat.flats()}
        brute = _brute_modular_sets(arr, flats)
        assert engine == brute
        ok, chain_sets = is_supersolvable(arr)
        assert ok == _brute_supersolvable(arr, brute)
        if ok:
            assert chain_sets[0] == ()
            for rank, step in enumerate(chain_sets):
                assert frozenset(step) in brute
                assert oracles.frac_rank([arr.covectors[i] for i in step]) == rank


# The build stores an integer basis of every flat and reads traces on it, and
# the interval walk goes up the stored covers.  The bases are checked against
# the Fraction rank oracle, the walk against a local copy of the walk over
# every hyperplane of each cover-table row that it replaced.


def test_flat_bases_span_each_flat_and_children_mirror_the_cover_table(h6):
    import math
    import random

    rng = random.Random(7)
    ran = {"gcd_split": 0, "dimension_one": 0}
    for arr in _differential_pool() + [h6]:
        uni = universe(arr)
        flats = range(uni.flat_count())
        if arr is h6:  # the Fraction rank of all 12,426 bases takes seconds
            flats = rng.sample(flats, 1500)
        for f in flats:
            basis = uni.flat_kernel(f)
            assert len(basis) == arr.dim - uni.rank[f]
            assert oracles.frac_rank(basis) == len(basis)
            for h, c in enumerate(arr.covectors):
                trace = [sum(x * y for x, y in zip(c, k)) for k in basis]
                if (uni.bits[f] >> h) & 1:
                    assert not any(trace)  # a member normal annihilates the flat
                else:
                    assert any(trace)  # a non-member misses it
                    ran["gcd_split"] += len(basis) >= 2 and math.gcd(*trace) > 1
            ran["dimension_one"] += len(basis) == 1 and bool(uni.children[f])
        for f in range(uni.flat_count()):
            assert uni.children[f] == list(dict.fromkeys(g for g in uni.T[f] if g >= 0))
    assert ran["gcd_split"] >= 20 and ran["dimension_one"] >= 20


def _row_walk(uni, x, mask):
    """The previous interval walk: every node hyperplane of each T row."""
    mask &= ~uni.bits[x]
    order, local, parents, ranks = [x], {x: 0}, [[]], [0]
    frontier, rel = [x], 0
    while frontier:
        rel += 1
        nxt = []
        for f in frontier:
            seen = set()
            for h in bit_indices(mask & ~uni.bits[f]):
                g = uni.T[f][h]
                if g in seen:
                    continue
                seen.add(g)
                if g not in local:
                    local[g] = len(order)
                    order.append(g)
                    parents.append([])
                    ranks.append(rel)
                    nxt.append(g)
                parents[local[g]].append(local[f])
        frontier = nxt
    mob = [1] * len(order)
    for i in range(1, len(order)):
        own = uni.bits[order[i]] & mask
        atom = own & -own
        mob[i] = -sum(mob[p] for p in parents[i] if not uni.bits[order[p]] & atom)
    return order, parents, ranks, mob


def _node_table(order, parents, ranks, mob):
    return {
        f: (frozenset(order[p] for p in parents[i]), ranks[i], mob[i])
        for i, f in enumerate(order)
    }


def test_cover_walk_matches_row_walk_on_random_nodes(h5, h6):
    import random

    rng = random.Random(13)
    nodes = []
    for arr in _differential_pool():
        uni = universe(arr)
        for _ in range(6):
            x = rng.randrange(uni.flat_count())
            nodes.append((uni, x, rng.getrandbits(len(arr))))  # about half the bits
    for arr, count in ((h5, 6), (h6, 3)):
        uni = universe(arr)
        full = (1 << len(arr)) - 1
        for rank in range(1, arr.rank):  # restriction nodes, the whole mask
            for x in rng.sample(uni.by_rank[rank], count):
                nodes.append((uni, x, full))
        for _ in range(count):  # many-bit submasks of the whole lattice
            nodes.append((uni, 0, full & ~(1 << rng.randrange(len(arr)))))
            nodes.append((uni, 0, full & ~rng.getrandbits(len(arr)) & ~rng.getrandbits(len(arr))))
    full_nodes = 0
    for uni, x, mask in nodes:
        order, parents, ranks = uni.node_walk(x, mask)
        got = _node_table(order, parents, ranks, uni.node_mobius(x, mask)[1])
        old = _row_walk(uni, x, mask)
        assert got == _node_table(*old)
        if mask & uni._full_mask == uni._full_mask:  # same order on whole-mask nodes
            assert order == old[0]
            full_nodes += 1
    assert full_nodes >= 20 and len(nodes) >= 150
