import functools
import itertools
import math

import pytest

from hyperarr import (
    boolean,
    build_lattice,
    chi,
    essentialize,
    find_generic_rank3_localization,
    from_vectors,
    hyperpolygonal,
    is_generic,
    is_supersolvable,
    localization,
    restriction,
    zaslavsky_region_count,
)
from hyperarr.lattice import bit_indices, mask_of, universe

import oracles


def _flat(lat, indices):
    """The flat of lat whose members are exactly the given hyperplanes."""
    return lat.flats()[lat._uni.bits.index(mask_of(indices))]


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


def test_partial_build_is_extended_in_place():
    from hyperarr import lattice

    arr = hyperpolygonal(4)
    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        uni = universe(arr, up_to_rank=2)
        partial = uni.flat_count()
        assert not uni.is_full and partial == sum(map(len, uni.by_rank))
        poly = chi(arr)
        assert uni.is_full and universe(arr) is uni
        lat = build_lattice(arr)
        assert lat._uni is uni
        flats = lat.flats()
        counts = lat.counts_by_rank()
        assert len(flats) == sum(counts) > partial
        assert [sum(f.rank == r for f in flats) for r in range(len(counts))] == counts
        assert flats[-1].rank == arr.rank and flats[-1].mobius == poly[0]
    finally:
        lattice._universe_cache.clear()
        lattice._universe_cache.update(saved)


def test_lattice_json_shape(h2):
    doc = build_lattice(h2).to_json_dict()
    assert doc["schema"] == "hyperarr/lattice-v1"
    assert doc["full"] is True
    assert len(doc["flats"]) == 6
    top = [f for f in doc["flats"] if f["rank"] == 2]
    assert len(top) == 1 and top[0]["contains"] == [0, 1, 2, 3] and top[0]["mobius"] == 3


# -- characteristic polynomials --------------------------------------------------


def test_chi_fixed_values(h2, h3, h4, h5):
    assert chi(h2) == oracles.from_roots((1, 3))
    assert chi(h3) == oracles.from_roots((1, 3, 3))
    assert chi(h4) == oracles.from_roots((1, 3, 3, 5))
    assert chi(h5) == oracles.from_roots((1, 5, 5, 5, 5))


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
    f = _flat(lat, [2])
    assert localization(h3, f).covectors == (h3.covectors[2],)


def test_localization_lattice_is_lower_interval(h4):
    lat = build_lattice(h4)
    some_rank2 = [f for f in lat.flats() if f.rank == 2][3]
    loc = localization(h4, some_rank2)
    below = [f for f in lat.flats() if set(f.contains) <= set(some_rank2.contains)]
    assert len(build_lattice(loc).flats()) == len(below)


def test_restriction_chi_satisfies_deletion_restriction(h3):
    from hyperarr import triple

    for idx in range(len(h3)):
        full, deleted, restricted = triple(h3, idx)
        assert chi(full) == oracles.subtract(chi(deleted), chi(restricted))


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


def test_restriction_rejects_a_set_that_is_not_a_flat(h3):
    from hyperarr.lattice import Flat

    # x1, x2, x3 meet only at the centre, which holds all seven hyperplanes
    with pytest.raises(KeyError):
        restriction(h3, Flat(index=0, rank=3, contains=(0, 1, 2), dim=0, mobius=0))


def test_restriction_checks_the_rank_however_far_the_lattice_is_built(monkeypatch):
    """A Flat is accepted only when its members are a flat of its own rank,
    on a fresh arrangement and after chi has built the shared lattice whole."""
    import weakref

    from hyperarr import lattice
    from hyperarr.lattice import Flat

    line = (0, 3, 4)  # x1 = 0 and x1 = +-(x2 + x3) meet in a rank-2 flat of H_3
    wrong = [(1, line), (-1, ()), (4, tuple(range(7))), (0, (0,))]  # ranks -1 and 4 are outside 0..3
    for whole_first in (False, True):
        monkeypatch.setattr(lattice, "_universe_cache", weakref.WeakKeyDictionary())
        arr = hyperpolygonal(3)
        if whole_first:
            chi(arr)
        for rank, members in wrong:
            with pytest.raises(KeyError):
                restriction(arr, Flat(index=0, rank=rank, contains=members, dim=3 - rank, mobius=0))
        assert restriction(arr, Flat(index=0, rank=2, contains=line, dim=1, mobius=0)).dim == 1
        assert restriction(arr, Flat(index=0, rank=0, contains=(), dim=3, mobius=1)) == arr


# -- modularity and supersolvability -----------------------------------------------


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
        steps = [frozenset(step) for step in witness_chain]
        assert _brute_modular_sets(arr, _brute_flats(arr.covectors), candidates=steps) == set(steps)
        prev: set[int] = set()
        for rank, step in enumerate(witness_chain):
            assert prev <= set(step)
            assert _flat(lat, step).rank == rank
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


def test_held_universe_does_not_keep_its_arrangement():
    import gc
    import weakref

    covs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (1, -2, 3)]
    arr = from_vectors(3, covs)
    uni = universe(arr)
    alive = weakref.ref(arr)
    del arr
    gc.collect()
    assert alive() is None
    # the held lattice still answers; the cache dropped it with the arrangement
    assert uni.is_full and uni.chi() == chi(from_vectors(3, covs))
    assert universe(from_vectors(3, covs)) is not uni


def _built_rank3_localization(arr):
    """The previous scan: the Moebius value read off a localization build."""
    from hyperarr.lattice import Flat, Universe

    if arr.rank < 3:
        return None
    uni = universe(arr, up_to_rank=3)
    for f in uni.by_rank[3] if len(uni.by_rank) > 3 else []:
        members = bit_indices(uni.bits[f])
        if len(members) >= 4 and all(uni.bits[p].bit_count() == 2 for p in uni.parents[f]):
            loc = Universe(arr.subset(members))
            order, mob = loc.node_mobius(0, loc._full_mask)
            top = max(range(len(order)), key=lambda i: loc.rank[order[i]])
            return Flat(index=f, rank=3, contains=members, dim=arr.dim - 3, mobius=mob[top])
    return None


def test_generic_rank3_mobius_matches_a_localization_build():
    pool = [from_vectors(d, c) for d, c in oracles.random_arrangements(300, seed=3101, max_dim=5)]
    sizes = set()
    for arr in pool + [hyperpolygonal(n) for n in range(1, 7)]:
        flat = find_generic_rank3_localization(arr)
        assert flat == _built_rank3_localization(arr)
        if flat is not None:
            sizes.add(len(flat.contains))
    assert {4, 5, 6} <= sizes


def test_explicit_four_sign_sum_localization_in_h6(h6):
    # the four sign-sum hyperplanes with I = {1}, {1,2,3}, {1,4,5}, {1,..,5}
    def form(I):
        return tuple(1 if i + 1 in I else -1 for i in range(6))

    idxs = [h6.index_of(form(I)) for I in ({1}, {1, 2, 3}, {1, 4, 5}, {1, 2, 3, 4, 5})]
    uni = universe(h6, up_to_rank=3)
    f = uni.bits.index(mask_of(idxs))
    assert uni.rank[f] == 3  # exactly those four, at rank 3
    assert is_generic(h6.subset(idxs))


# -- region counts ------------------------------------------------------------------


def test_zaslavsky_count(h2, h3, bool3):
    assert zaslavsky_region_count(h2) == 8
    assert zaslavsky_region_count(h3) == 32
    assert zaslavsky_region_count(bool3) == 8


def test_bit_indices_reads_every_set_bit_in_ascending_order():
    import random

    rng = random.Random(2800)
    masks = [0, 1, 1 << 1999, (1 << 2000) - 1] + [rng.getrandbits(rng.randrange(1, 2001)) for _ in range(200)]
    for mask in masks:
        assert bit_indices(mask) == tuple(sorted(i for i in range(2000) if mask >> i & 1))


# -- differential checks of the rewritten layers ------------------------------------
#
# The build groups canonical traces, one per block of the covers of a flat's
# first parent, joins walk the stored covers, and Moebius values come from
# Weisner's theorem.  Each is checked against tests/oracles.py and, for the
# build, against local copies of the closure-by-membership build and of the
# per-hyperplane trace-grouped build with its cover table T[f][h] =
# closure(f + h), which the lattice no longer stores: children and bits must
# hold the same table, with the same flat ids, parents and flat bases.


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


def _cut_basis(basis, trace):
    """Basis of X meet H from a basis of X and the trace t of H on it: with p
    the first nonzero index of t, the vectors t_p*k_j - t_j*k_p (j != p) span
    the kernel of t; each is made primitive.  The build cut every new flat's
    basis this way before the bases were derived from the key chain."""
    p = next(i for i, x in enumerate(trace) if x)
    tp, kp = trace[p], basis[p]
    out = []
    for j, (k, tj) in enumerate(zip(basis, trace)):
        if j == p:
            continue
        if tj:
            v = [tp * a - tj * b for a, b in zip(k, kp)]
            g = math.gcd(*v)
            k = tuple(x // g for x in v) if g > 1 else tuple(v)
        out.append(k)
    return tuple(out)


def _primitive_bases(uni):
    """The flat bases of uni with each vector divided by its content, the
    gcd of its entries: the primitive bases _cut_basis gives."""
    return [tuple(tuple(x // math.gcd(*k) for x in k) for k in uni.flat_kernel(f)) for f in range(uni.flat_count())]


@functools.cache
def _trace_grouped_cover_table(arr):
    """The cover table T[f][h] = closure(f + h) of the trace-grouped build
    before the table was deleted, with its flat bits and the flat bases it
    cuts: a trace for every hyperplane outside each flat, dot products one by
    one in the coordinates of the span of the normals, canonical traces
    grouped in order of their lowest hyperplane."""
    normals, r = essentialize(arr).covectors, arr.rank
    m, full = len(arr), (1 << len(arr)) - 1
    bits, T, by_rank, index = [0], [[-1] * m], [[0]], {0: 0}
    basis = [tuple(tuple(int(i == j) for j in range(r)) for i in range(r))]
    for _ in range(r):
        nxt = []
        for f in by_rank[-1]:
            groups = {}
            if len(basis[f]) == 1:
                if full & ~bits[f]:
                    groups[(1,)] = full & ~bits[f]
            else:
                for h, c in enumerate(normals):
                    if (bits[f] >> h) & 1:
                        continue
                    trace = [sum(x * y for x, y in zip(c, k)) for k in basis[f]]
                    g = math.gcd(*trace) * (1 if next(x for x in trace if x) > 0 else -1)
                    trace = tuple(x // g for x in trace)
                    groups[trace] = groups.get(trace, 0) | (1 << h)
            for trace, group in groups.items():
                nb = bits[f] | group
                g = index.get(nb)
                if g is None:
                    g = index[nb] = len(bits)
                    bits.append(nb)
                    basis.append(_cut_basis(basis[f], trace))
                    T.append([-1] * m)
                    nxt.append(g)
                for h in bit_indices(group):
                    T[f][h] = g
        by_rank.append(nxt)
    return bits, T, basis


def _rows(table, uni):
    """A stored cover table as a list of lists, one row per flat in id order."""
    return [list(table[f]) for f in range(uni.flat_count())]


def _cover_rows(uni):
    """The cover table as children and bits hold it: h outside f leads to
    the child of f whose bits hold h."""
    T = [[-1] * uni.m for _ in range(uni.flat_count())]
    for f in range(uni.flat_count()):
        for g in uni.children[f]:
            for h in bit_indices(uni.bits[g] & ~uni.bits[f]):
                T[f][h] = g
    return T


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


def test_id_range_levels_hyperplane_ordered_atoms_and_one_hyperplane_drops(h5, h6):
    """The lattice facts that stand in for a bits -> id index: every level
    is a range of ids in rank order, the atom of hyperplane h is
    by_rank[1][h], and for h in a flat X, X minus h is a flat exactly when X
    covers it, so the one-hyperplane drops are read off parents[X]."""
    for arr in _differential_pool() + [h5, h6]:
        uni = universe(arr)
        bits = uni.bits
        assert all(type(level) is range for level in uni.by_rank)
        assert [f for level in uni.by_rank for f in level] == list(range(len(bits)))
        assert all(uni.rank[f] == k for k, level in enumerate(uni.by_rank) for f in level)
        assert [bits[uni.by_rank[1][h]] for h in range(len(arr))] == [1 << h for h in range(len(arr))]
        flats = set(bits)
        for f, bf in enumerate(bits):
            drops = {bf ^ bits[p] for p in uni.parents[f]}
            for h in bit_indices(bf):
                assert (1 << h in drops) == (bf ^ (1 << h) in flats), (arr, f, h)


def test_trace_grouped_build_matches_membership_build_and_oracle():
    for arr in _differential_pool():
        uni = universe(arr)
        bits, rank, T, parents, by_rank = _membership_build(arr)
        assert uni.bits == bits and uni.rank == rank
        assert _trace_grouped_cover_table(arr)[:2] == (bits, T)
        assert _cover_rows(uni) == T and _rows(uni.parents, uni) == parents
        assert list(map(list, uni.by_rank)) == [lv for lv in by_rank if lv]
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


def test_deletion_chi_matches_a_walk_from_scratch_on_random_nodes():
    """chi of a deletion by deletion-restriction equals the interval walk."""
    import random

    from hyperarr.lattice import Universe

    rng = random.Random(17)
    checked = 0
    for arr in _differential_pool():
        uni, fresh = Universe(arr), Universe(arr)
        for _ in range(6):
            x = rng.randrange(uni.flat_count())
            outside = [h for h in range(len(arr)) if not (uni.bits[x] >> h) & 1]
            mask = sum(1 << h for h in rng.sample(outside, min(len(outside), rng.randint(1, 7))))
            for e, pre in uni.node_elements(x, mask):
                assert uni.deletion_chi(x, mask, e) == fresh.node_chi(x, mask & ~pre)
                checked += 1
    assert checked > 200


def _brute_modular_sets(arr, flats, candidates=None):
    """The flats among candidates (default: all) that satisfy the modular
    rank formula against every flat."""
    @functools.cache
    def r(s):
        return oracles.frac_rank([arr.covectors[i] for i in s])

    return {
        x
        for x in (flats if candidates is None else candidates)
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
    pool = [arr for arr in _differential_pool() if len(arr) <= 8 or arr.rank == 4] + [boolean(4)]
    for arr in pool:
        if len(arr) <= 8:
            flats = _brute_flats(arr.covectors)
        else:  # the build test checks these flat sets against the previous build
            flats = {frozenset(f.contains) for f in build_lattice(arr).flats()}
        brute = _brute_modular_sets(arr, flats)
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
# every hyperplane of each cover-table row that it replaced, on the table of
# the trace-grouped copy above.


def test_flat_bases_span_each_flat_and_children_mirror_the_cover_table(h6):
    import random

    rng = random.Random(7)
    ran = {"gcd_split": 0, "dimension_one": 0}
    for arr in _differential_pool() + [h6]:
        uni = universe(arr)
        flats = range(uni.flat_count())
        if arr is h6:  # the Fraction rank of all 12,426 bases takes seconds
            flats = rng.sample(flats, 1500)
        # the lattice coordinates are those of the essentialization
        assert uni.normals == list(essentialize(arr).covectors)
        for f in flats:
            basis = uni.flat_kernel(f)
            assert len(basis) == arr.rank - uni.rank[f]
            assert all(len(k) == arr.rank for k in basis)
            assert oracles.frac_rank(basis) == len(basis)
            for h, c in enumerate(uni.normals):
                trace = [sum(x * y for x, y in zip(c, k)) for k in basis]
                if (uni.bits[f] >> h) & 1:
                    assert not any(trace)  # a member normal annihilates the flat
                else:
                    assert any(trace)  # a non-member misses it
                    ran["gcd_split"] += len(basis) >= 2 and math.gcd(*trace) > 1
            ran["dimension_one"] += len(basis) == 1 and bool(uni.children[f])
        bits, T, _ = _trace_grouped_cover_table(arr)
        assert bits == uni.bits
        assert _rows(uni.children, uni) == [list(dict.fromkeys(g for g in row if g >= 0)) for row in T]
    assert ran["gcd_split"] >= 20 and ran["dimension_one"] >= 20


def _row_walk(uni, T, x, mask):
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
                g = T[f][h]
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
    tables = {}
    for arr in _differential_pool():
        uni = universe(arr)
        tables[arr] = _trace_grouped_cover_table(arr)[1]
        for _ in range(6):
            x = rng.randrange(uni.flat_count())
            nodes.append((arr, uni, x, rng.getrandbits(len(arr))))  # about half the bits
    for arr, count in ((h5, 6), (h6, 3)):
        uni = universe(arr)
        tables[arr] = _trace_grouped_cover_table(arr)[1]
        full = (1 << len(arr)) - 1
        for rank in range(1, arr.rank):  # restriction nodes, the whole mask
            for x in rng.sample(uni.by_rank[rank], count):
                nodes.append((arr, uni, x, full))
        for _ in range(count):  # many-bit submasks of the whole lattice
            nodes.append((arr, uni, 0, full & ~(1 << rng.randrange(len(arr)))))
            nodes.append((arr, uni, 0, full & ~rng.getrandbits(len(arr)) & ~rng.getrandbits(len(arr))))
    full_nodes = 0
    for arr, uni, x, mask in nodes:
        order, parents = uni.node_walk(x, mask)
        ranks = [uni.rank[g] - uni.rank[x] for g in order]
        got = _node_table(order, parents, ranks, uni.node_mobius(x, mask)[1])
        old = _row_walk(uni, tables[arr], x, mask)
        assert got == _node_table(*old)
        if mask & uni._full_mask == uni._full_mask:  # same order on whole-mask nodes
            assert list(order) == old[0]
            full_nodes += 1
    assert full_nodes >= 20 and len(nodes) >= 150


# Covers are stored as rows of int arrays, and the whole-lattice node
# (0, all hyperplanes) is the stored structure itself, read with no copy.
# Checked against the walk that copied every parent row into local ids, on
# whole builds and on builds grown from rank 3.


def _copying_walk(uni, x, mask):
    """The previous interval walk, with local parent lists for every node,
    and Weisner's Moebius values on it."""
    bits = uni.bits
    mask &= ~bits[x]
    order, local, parents, ranks = [x], {x: 0}, [[]], [0]
    frontier, rel = [x], 0
    while frontier:
        rel += 1
        nxt = []
        for f in frontier:
            out = mask & ~bits[f]
            for g in uni.children[f]:
                if not bits[g] & out:
                    continue
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
        own = bits[order[i]] & mask
        atom = own & -own
        mob[i] = -sum(mob[p] for p in parents[i] if not bits[order[p]] & atom)
    return order, parents, ranks, mob


def test_whole_lattice_walk_reads_the_stored_covers():
    from hyperarr.lattice import Universe

    for arr in _differential_pool() + [hyperpolygonal(n) for n in range(1, 7)]:
        whole = Universe(arr)
        grown = Universe(arr, up_to_rank=3)
        grown.extend()
        assert (grown.bits, grown.rank, grown.by_rank) == (whole.bits, whole.rank, whole.by_rank)
        assert _rows(grown.parents, grown) == _rows(whole.parents, whole)
        assert _rows(grown.children, grown) == _rows(whole.children, whole)
        for uni in (whole, grown):
            full = uni._full_mask
            order, parents = uni.node_walk(0, full)
            assert parents is uni.parents  # nothing copied
            copied = _copying_walk(uni, 0, full)
            assert list(order) == copied[0] == list(range(uni.flat_count()))
            assert [list(row) for row in parents] == copied[1]
            assert [uni.rank[g] for g in order] == copied[2]
            mob_order, mob = uni.node_mobius(0, full)
            assert list(mob_order) == copied[0] and mob == copied[3]


def test_build_and_chi_of_h5_stay_under_a_traced_memory_bound():
    """The traced peak of building H_5's lattice (568 flats) and its chi:
    0.38-0.40 MB with list-of-lists covers and a chi pass that copied the
    parent lists, 0.23 MB with int-array rows read in place (Python 3.11)."""
    import tracemalloc

    from hyperarr.lattice import Universe

    arr = hyperpolygonal(5)
    tracemalloc.start()
    try:
        Universe(arr).chi()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.30 * 2**20


def test_h6_lattice_stays_under_a_traced_live_memory_bound():
    """The traced memory the lattice of H_6 (12,426 flats) holds once built:
    2.49 MiB with a global bits -> id dict and levels as id lists, 1.51 MiB
    with levels as id ranges and each pass's own lookup (Python 3.11)."""
    import tracemalloc

    from hyperarr.lattice import Universe

    arr = hyperpolygonal(6)
    tracemalloc.start()
    try:
        uni = Universe(arr)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert uni.flat_count() == 12426 and live < 2.0 * 2**20


# The lattice keeps no cover table, and supersolvability is a top-down search
# for modular coatoms, tested by lines.


def _braid(n):
    """A_n: the hyperplanes x_i = x_j in Q^(n+1)."""
    pairs = itertools.combinations(range(n + 1), 2)
    return from_vectors(n + 1, [tuple((k == i) - (k == j) for k in range(n + 1)) for i, j in pairs])


def _type_b(n):
    """B_n: x_i = 0 and x_i = +-x_j in Q^n."""
    vecs = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for s in (1, -1):
            vecs.append(tuple((k == i) + s * (k == j) for k in range(n)))
    return from_vectors(n, vecs)


def _with_coloops(arr, k):
    """arr times k new coordinate hyperplanes.  The flats that hold all of
    arr are modular coatoms on the way down, so when arr is not
    supersolvable the search fails below a modular coatom."""
    d = arr.dim + k
    vecs = [tuple(c) + (0,) * k for c in arr.covectors]
    return from_vectors(d, vecs + [tuple(int(j == arr.dim + i) for j in range(d)) for i in range(k)])


def _is_modular(uni, x):
    """The previous modularity test: r(X) + r(Y) = r(X v Y) + r(X ^ Y) for
    every flat Y, each join walked up the covers from x."""
    rx = uni.rank[x]
    if rx <= 1 or rx == len(uni.by_rank) - 1:
        return True  # ambient space, hyperplanes and the centre
    bits, rank, children = uni.bits, uni.rank, uni.children
    bx = bits[x]
    # same-rank flats violate most often; scan them first
    for y in list(uni.by_rank[rx]) + [y for k, lv in enumerate(uni.by_rank) if k != rx for y in lv]:
        by = bits[y]
        meet = uni.bits.index(bx & by)
        join, hs = x, by & ~bx
        while hs:  # to the cover holding the lowest hyperplane still missing
            low = hs & -hs
            join = next(g for g in children[join] if bits[g] & low)
            hs &= ~bits[join]
        if rx + rank[y] != rank[join] + rank[meet]:
            return False
    return True


def _bottom_up_supersolvable(arr):
    """The previous search: a modular flat of every rank, up from the ambient
    space, each tested against every flat by _is_modular."""
    from hyperarr.arrangement import essentialize

    ess = essentialize(arr)
    uni = universe(ess)

    @functools.cache
    def modular(f):
        return _is_modular(uni, f)

    def extend(x, k):
        if k == ess.rank:
            return True
        bx = uni.bits[x]
        return any(
            uni.bits[g] & bx == bx and modular(g) and extend(g, k + 1) for g in uni.by_rank[k + 1]
        )

    return extend(0, 0)


def test_top_down_supersolvability_matches_bottom_up_search(h6):
    randoms = oracles.random_arrangements(300, seed=919, max_dim=5, max_size=9)
    pool = [from_vectors(d, covs) for d, covs in randoms]
    pool += [hyperpolygonal(n) for n in range(1, 6)] + [h6]
    pool += [_braid(n) for n in range(3, 6)] + [_type_b(n) for n in range(2, 5)]
    # modular coatoms whose intervals fail: the search stops there, as no
    # other coatom can lead to a chain
    generic4 = from_vectors(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    pool += [_with_coloops(arr, k) for arr in (generic4, hyperpolygonal(3)) for k in (1, 2)]
    decided = {True: 0, False: 0}
    for arr in pool:
        ok, chain = is_supersolvable(arr)
        assert ok == _bottom_up_supersolvable(arr)
        decided[ok] += 1
        if not ok:
            assert chain is None
            continue
        steps = [frozenset(step) for step in chain]
        assert steps[0] == frozenset() and len(steps) == arr.rank + 1
        assert all(a < b for a, b in zip(steps, steps[1:]))
        for rank, step in enumerate(steps):
            assert oracles.frac_rank([arr.covectors[i] for i in step]) == rank
        if len(arr) <= 6:
            flats = _brute_flats(arr.covectors)
        else:  # the build tests check these flat sets against the previous builds
            flats = {frozenset(f.contains) for f in build_lattice(arr).flats()}
        assert set(steps) <= flats
        assert _brute_modular_sets(arr, flats, candidates=steps) == set(steps)
    assert decided[True] >= 100 and decided[False] >= 100
    for arr in [_braid(n) for n in range(3, 6)] + [_type_b(n) for n in range(2, 5)]:
        assert is_supersolvable(arr)[0]


def test_wide_entry_build_matches_membership_build(h3):
    import random

    from hyperarr.lattice import Universe
    from hyperarr.regions import _sign_rows

    def direct_rows(normals, cands):
        dots = [[sum(x * y for x, y in zip(c, v)) for v in cands] for c in normals]
        return (
            [sum(1 << k for k, d in enumerate(row) if d > 0) for row in dots],
            [sum(1 << k for k, d in enumerate(row) if d < 0) for row in dots],
        )

    rng = random.Random(41)
    big = 1 << 40
    # the lanes hold dot products below 2^62 exactly, in both signs and at 0;
    # at or past the lane bound the kernel takes them one by one
    wide_normals = [(big - 1, 1 - big), (-(1 << 62) + 1, (1 << 62) - 1), (3, -5)]
    narrow_normals = [(3, -5), (1, -1), (-7, 2), (0, 1)]
    rays = [(1, 0), (0, 1), (1, 1), (-1, 1), (2, -1), (3, -2), (big, big + 3), (1 << 30, -(1 << 33))]
    cases = [
        (wide_normals, [(1, 0), (0, 1)]),  # dot products up to 2^62 - 1 in lanes
        (narrow_normals, rays),  # 7 * (2^41 + 3) < 2^62: lanes
        ([((1 << 62) - 1, 0)], [(1, 0), (0, 1)]),  # one below the bound: lanes
        (wide_normals, rays),  # past the bound: one by one
        ([(1 << 61, -1)], [(2, 0), (0, 1)]),  # at the bound: one by one
        ([(1, -1)], [(1 << 62, 0), (0, 1)]),  # a ray entry that no biased lane holds
    ]
    lanes = 0
    for normals, picked in cases:
        cands = [w for v in picked for w in (v, tuple(-x for x in v))]
        assert _sign_rows(normals, cands) == direct_rows(normals, cands)
        lanes += max(abs(x) for c in normals for x in c) * max(sum(map(abs, v)) for v in picked) < 1 << 62
    assert lanes == 3
    routes = {"packed": 0, "wide": 0}
    randoms = oracles.random_arrangements(12, seed=43, max_size=7)
    pool = [h3] + [from_vectors(d, covs) for d, covs in randoms]
    for small in [arr for arr in pool if arr.rank >= 2]:
        arr = from_vectors(small.dim, oracles.wide_shear(small.dim, small.covectors, rng))
        assert max(abs(x) for c in arr.covectors for x in c) >= big
        uni = Universe(arr)
        bits, rank, T, parents, by_rank = _membership_build(arr)
        assert uni.bits == bits == universe(small).bits and uni.rank == rank
        assert _cover_rows(uni) == T and _rows(uni.parents, uni) == parents
        assert list(map(list, uni.by_rank)) == [lv for lv in by_rank if lv]
        entry = max(abs(x) for c in arr.covectors for x in c)
        for f in range(uni.flat_count()):
            basis = uni.flat_kernel(f)
            if len(basis) >= 2 and uni.children[f]:
                wide = any(entry * sum(map(abs, k)) >= 1 << 63 for k in basis)
                routes["wide" if wide else "packed"] += 1
    assert routes["packed"] >= 10 and routes["wide"] >= 10


def _non_essential_copy(arr, k, rng):
    """arr with k zero columns appended, then sheared by an upper unitriangular
    integer matrix: the same matroid in dim + k, of rank arr.rank."""
    d = arr.dim + k
    shear = [[int(i == j) + rng.randint(-3, 3) * (i < j) for j in range(d)] for i in range(d)]
    wide = [tuple(c) + (0,) * k for c in arr.covectors]
    return from_vectors(d, [[sum(c[i] * shear[i][j] for i in range(d)) for j in range(d)] for c in wide])


def test_non_essential_copies_match_their_source_and_the_oracles():
    import random

    from hyperarr import analyze, enumerate_regions, gen_closure

    rng = random.Random(2100)
    randoms = oracles.random_arrangements(24, seed=2101, max_dim=4, max_size=7)
    pool = [from_vectors(d, covs) for d, covs in randoms] + [hyperpolygonal(n) for n in (2, 3, 4)]
    # the natural seeds of H_3 and H_4, whose closures cover them
    natural = {hyperpolygonal(n): tuple(range(n - 1)) + (n, n + 2 ** (n - 1) - 1) for n in (3, 4)}
    seen = {"copies": 0, "restrictions": 0, "grew": 0}
    for src in pool:
        k = rng.randint(1, 2)
        copy = _non_essential_copy(src, k, rng)
        assert copy.rank == src.rank < copy.dim and len(copy) == len(src)
        lat, lat_src = build_lattice(copy), build_lattice(src)
        flats = [(fl.contains, fl.rank, fl.mobius, fl.dim - k) for fl in lat.flats()]
        assert flats == [(fl.contains, fl.rank, fl.mobius, fl.dim) for fl in lat_src.flats()]
        assert universe(copy).normals == list(essentialize(copy).covectors)
        assert len(universe(copy).flat_kernel(0)) == copy.rank
        chi_copy = lat.chi()
        assert chi_copy == (0,) * k + lat_src.chi()
        regs = enumerate_regions(copy)
        assert regs.masks == enumerate_regions(src).masks
        seeds = [rng.sample(range(len(src)), min(len(src), rng.randint(0, src.rank + 1))) for _ in range(3)]
        for seed in seeds + ([natural[src]] if src in natural else []):
            gc = gen_closure(copy, seed)
            assert gc == gen_closure(src, seed)
            seen["grew"] += bool(gc.rounds)
        rep, rep_src = analyze(copy), analyze(src)
        values = {name: d.value for name, d in rep.properties.items() if name != "projectively_unique"}
        assert values == {name: d.value for name, d in rep_src.properties.items() if name != "projectively_unique"}
        assert rep.chi == chi_copy and rep.regions == rep_src.regions
        if rep_src.exponents is not None:
            assert rep.exponents == (0,) * k + rep_src.exponents
        for fl, fl_src in zip(lat.flats(), lat_src.flats()):
            if not fl_src.dim:
                continue  # the centre of an essential source has no restriction
            res, res_src = restriction(copy, fl), restriction(src, fl_src)
            assert res.dim == res_src.dim + k and len(res) == len(res_src)
            assert universe(res).bits == universe(res_src).bits
            seen["restrictions"] += 1
        # the oracles, on the copy itself; the subset sweeps take seconds on H_4
        assert len(regs) == zaslavsky_region_count(copy)
        if len(copy) <= 8:
            assert {frozenset(fl.contains) for fl in lat.flats()} == oracles.brute_flat_sets(copy.covectors)
            assert chi_copy == oracles.whitney_chi(copy.dim, copy.covectors)
        seen["copies"] += 1
    assert seen["copies"] == len(pool) and seen["restrictions"] >= 100 and seen["grew"] >= 2


# The build reads one trace per block g - P of the covers g of a flat's first
# parent P, not one per hyperplane.  Checked against the per-hyperplane build
# above on flat ids, covers and bases, for one-shot and grown builds, and by
# the count of traces read.


def _build_tables(uni):
    return (
        uni.bits,
        list(uni.parents.values), list(uni.parents.start),
        list(uni.children.values), list(uni.children.start),
        [uni.flat_kernel(f) for f in range(uni.flat_count())],
    )


def _check_block_build(arr):
    from hyperarr.lattice import Universe

    whole = Universe(arr)
    bits, T, bases = _trace_grouped_cover_table(arr)
    assert whole.bits == bits and _cover_rows(whole) == T
    assert _primitive_bases(whole) == bases
    grown = Universe(arr, up_to_rank=2)
    grown.extend(3)
    grown.extend()
    assert _build_tables(grown) == _build_tables(whole)
    assert grown.by_rank == whole.by_rank and grown.traces == whole.traces


def test_block_build_matches_the_per_hyperplane_build_one_shot_and_grown():
    import random

    rng = random.Random(2200)
    copies = [_non_essential_copy(hyperpolygonal(n), 2, rng) for n in (4, 5)]
    assert all(copy.rank < copy.dim for copy in copies)
    for arr in _differential_pool() + copies:
        _check_block_build(arr)


def test_block_build_matches_the_per_hyperplane_build_on_h6(h6):
    _check_block_build(h6)


def test_trace_count_is_one_per_block_of_each_first_parent(h5, h6):
    """H_5 and H_6 read 8,862 and 348,270 traces with one per hyperplane,
    members included, on each flat of dimension >= 2."""
    from hyperarr.lattice import Universe

    for arr, count in ((h5, 4_211), (h6, 143_234)):
        uni = Universe(arr)
        assert uni.traces == count
        # one block per hyperplane at the ambient flat, then the covers of
        # each flat's first parent but its own
        blocks = len(arr) + sum(
            len(uni.children[uni.parents[f][0]]) - 1
            for f in range(1, uni.flat_count())
            if len(uni.flat_kernel(f)) >= 2
        )
        assert uni.traces == blocks


def _reference_trace_count(arr):
    """The traces a build reads, counted off the per-hyperplane build's cover
    table: on each flat of dimension >= 2, one per hyperplane at the ambient
    flat, then the covers of the flat's first parent but its own."""
    bits, T, bases = _trace_grouped_cover_table(arr)
    first_parent = {}
    for f, row in enumerate(T):
        for g in row:
            if g != -1:
                first_parent.setdefault(g, f)
    reads = [len(arr)] + [len(set(T[first_parent[f]]) - {-1}) - 1 for f in range(1, len(bits))]
    return sum(n for n, basis in zip(reads, bases) if len(basis) >= 2)


def test_the_centre_pass_writes_whole_rows_and_reads_no_trace(h6):
    """The pass from the lines, the flats of dimension one, to the centre:
    each line's children row is [centre], the centre's parent row is the
    line level in id order and its key is (1,).  On the differential pool,
    H_6, one hyperplane in dimension 3 (its ambient flat is its line), and
    pencils of lines in the plane and of planes through a line in space.
    A build stopped at the lines and then extended equals a one-shot one."""
    from hyperarr.lattice import Universe

    pencils = [
        from_vectors(3, [(1, 0, 0)]),
        from_vectors(2, [(1, 0), (0, 1), (1, 1), (1, -1)]),
        from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)]),
    ]
    for arr in _differential_pool() + [h6] + pencils:
        r = arr.rank
        whole = Universe(arr)
        centre, lines = whole.flat_count() - 1, whole.by_rank[r - 1]
        assert whole.by_rank[r] == range(centre, centre + 1) and whole.bits[centre] == whole._full_mask
        assert [list(whole.children[f]) for f in lines] == [[centre]] * len(lines)
        assert list(whole.children[centre]) == [] and list(whole.parents[centre]) == list(lines)
        assert whole._keys[r - 1][whole._key[centre]] == (1,) and len(whole._keys[r - 1]) == 1
        assert whole.traces == _reference_trace_count(arr)
        grown = Universe(arr, up_to_rank=r - 1)
        assert grown.built_to == r - 1 and not grown.is_full
        grown.extend()
        assert (grown.by_rank, grown.rank, grown.traces) == (whole.by_rank, whole.rank, whole.traces)
        assert (list(grown._key), grown._keys) == (list(whole._key), whole._keys)
        assert _build_tables(grown) == _build_tables(whole)


# The build reads the traces of a flat X's covers as 2x2 minors of the cover
# traces of its first parent P and keeps no flat basis: flat_kernel derives
# them from the key chain (the trace of each flat on its first parent) when
# one is first read, as the minors of P's basis the build read the traces in.


def _sheared_copies(h4, h5):
    """Copies of H_4, H_5 and four random inputs of rank >= 4 with normals
    near 2^32, sheared by an upper unitriangular matrix: the same matroid."""
    import random

    rng = random.Random(2400)
    big = 1 << 30
    randoms = oracles.random_arrangements(40, seed=2401, max_dim=5, max_size=9)
    pool = [h4, h5] + [arr for arr in (from_vectors(d, covs) for d, covs in randoms) if arr.rank >= 4][:4]
    assert len(pool) == 6
    out = []
    for small in pool:
        d = small.dim
        shear = [[int(i == j) + (big + rng.randrange(99)) * (i < j) for j in range(d)] for i in range(d)]
        arr = from_vectors(
            d, [[sum(c[i] * shear[i][j] for i in range(d)) for j in range(d)] for c in small.covectors]
        )
        assert big <= max(abs(x) for c in arr.covectors for x in c) < 1 << 40
        out.append((small, arr))
    return out


def test_minors_past_64_bits_give_the_reference_tables_and_bases(h4, h5):
    """Sheared copies with normals near 2^32, whose traces below the ambient
    flat are minors of minors: up to 2^62 on the flats of rank 1 and past
    2^90 on those of rank 2 of three of the six inputs.  Tables and bases
    equal the membership build and the per-hyperplane build."""
    from hyperarr.lattice import Universe

    wide = 0
    for small, arr in _sheared_copies(h4, h5):
        uni = Universe(arr)
        # the widest canonical trace of each pass, by the rank of the flats it was read on
        widths = [max(abs(x) for key in keys for x in key) for keys in uni._keys]
        assert widths[0] < 1 << 63
        wide += max(widths) >= 1 << 90
        bits, rank, T, parents, by_rank = _membership_build(arr)
        assert uni.bits == bits == universe(small).bits and uni.rank == rank
        assert _cover_rows(uni) == T and _rows(uni.parents, uni) == parents
        assert _primitive_bases(uni) == _trace_grouped_cover_table(arr)[2]
    assert wide >= 3


def _check_bases_are_minors_of_the_first_parent(uni, key, keys):
    """Every flat X != 0 of uni has the basis _minors(flat_kernel(P), key
    of X) for its first parent P, with the key chain key, keys read off uni
    before its first basis read; the count of basis vectors with content
    > 1 is returned."""
    from hyperarr.lattice import _minors

    r = uni.arr_rank
    assert uni.flat_kernel(0) == tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    for x in range(1, uni.flat_count()):
        p, t = uni.parents[x][0], keys[uni.rank[x] - 1][key[x]]
        assert uni.flat_kernel(x) == tuple(map(tuple, _minors(uni.flat_kernel(p), t)))
    return sum(math.gcd(*k) > 1 for f in range(uni.flat_count()) for k in uni.flat_kernel(f))


def test_each_flat_basis_is_the_minors_of_its_first_parents_by_its_key(h4, h5, h6):
    """One-shot builds read in id order, and builds grown to ranks 2, 3 and
    then full with the last basis read at each step and every basis read in
    reverse id order at the end, so most flats are read before their first
    parent; the grown bases equal the one-shot ones.  The bases are those the
    build read traces in, not primitive ones."""
    from hyperarr.lattice import Universe

    contents = 0
    for arr in _differential_pool() + [h6] + [arr for _, arr in _sheared_copies(h4, h5)]:
        whole = Universe(arr)
        contents += _check_bases_are_minors_of_the_first_parent(whole, whole._key, whole._keys)
        # the build grows the key chain in place and keeps it
        grown = Universe(arr, up_to_rank=2)
        key, keys = grown._key, grown._keys
        for rank in (2, 3):
            grown.extend(rank)
            grown.flat_kernel(grown.flat_count() - 1)
        grown.extend()
        backwards = [grown.flat_kernel(f) for f in reversed(range(grown.flat_count()))]
        _check_bases_are_minors_of_the_first_parent(grown, key, keys)
        assert backwards[::-1] == [whole.flat_kernel(f) for f in range(whole.flat_count())]
        assert (list(grown._key), grown._keys) == (list(whole._key), whole._keys)
    assert contents >= 20


# A pass whose last pass left K distinct canonical traces, and which reads B
# blocks, looks the key id of each block up in a K x K table of key-id pairs
# when K^2 < B (_reads_table), and otherwise reads the minors of every block.


def _check_both_lookups(arr, monkeypatch):
    """One-shot and grown builds with the pair table on every pass, then on
    none, against the per-hyperplane build: flat bits, both cover tables, the
    ranks, the trace count and the bases; and the key chain of the real rule."""
    from hyperarr import lattice

    bits, T, bases = _trace_grouped_cover_table(arr)
    rank, parents = [0] * len(bits), [[] for _ in bits]
    for f, row in enumerate(T):
        for g in sorted(set(row) - {-1}):
            rank[g] = rank[f] + 1
            parents[g].append(f)
    by_rank = [[f for f in range(len(bits)) if rank[f] == r] for r in range(max(rank) + 1)]
    # on the flats of dimension >= 2: one block per hyperplane at the ambient
    # flat, then the covers of each first parent but the flat's own
    reads = [len(arr)] + [len(set(T[parents[f][0]]) - {-1}) - 1 for f in range(1, len(bits))]
    traces = sum(n for n, basis in zip(reads, bases) if len(basis) >= 2)
    real = lattice.Universe(arr)
    chain = (list(real._key), real._keys)
    for table in (True, False):
        monkeypatch.setattr(lattice, "_reads_table", lambda keys, reads: table)
        whole = lattice.Universe(arr)
        grown = lattice.Universe(arr, up_to_rank=2)
        grown.extend(3)
        grown.extend()
        for uni in (whole, grown):
            assert (list(uni._key), uni._keys) == chain, table
            assert uni.bits == bits and list(map(list, uni.by_rank)) == by_rank and uni.traces == traces
            assert _cover_rows(uni) == T and _rows(uni.parents, uni) == parents
            assert _primitive_bases(uni) == bases
    monkeypatch.undo()


def test_pair_table_and_minors_give_the_reference_build_on_every_input(h4, h5, h6, monkeypatch):
    """The differential pool, H_6 and the sheared copies of
    test_minors_past_64_bits_give_the_reference_tables_and_bases: none of
    the copies reads the table under the real rule, so only the forced mode
    sends their traces past 2^90 through it."""
    for arr in _differential_pool() + [h6] + [arr for _, arr in _sheared_copies(h4, h5)]:
        _check_both_lookups(arr, monkeypatch)


def test_the_rule_sends_the_passes_of_many_blocks_over_few_keys_to_the_table(h5, h6, monkeypatch):
    """H_6: the passes to ranks 4 and 5 read the table, the one to rank 3
    (K = 121, B = 14,220) does not; H_5: those to ranks 3 and 4.  B is the
    count of traces the pass reads; the ambient and line passes ask nothing.
    A grown build asks the same of each pass."""
    from hyperarr import lattice

    rule = lattice._reads_table
    asked = []

    def spy(keys, reads):
        asked.append((keys, reads, rule(keys, reads)))
        return asked[-1][2]

    monkeypatch.setattr(lattice, "_reads_table", spy)
    for arr, passes in (
        (h5, [(21, 420, False), (40, 1_670, True), (13, 2_100, True)]),
        (h6, [(38, 1_406, False), (121, 14_220, False), (40, 56_320, True), (49, 71_250, True)]),
    ):
        asked.clear()
        uni = lattice.Universe(arr)
        assert asked == passes
        assert uni.traces == len(arr) + sum(reads for _, reads, _ in passes)
        asked.clear()
        grown = lattice.Universe(arr, up_to_rank=3)
        grown.extend()
        assert asked == passes


def _deep_size(obj, seen=None):
    import sys

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    inner = obj if isinstance(obj, (list, tuple)) else ()
    return sys.getsizeof(obj) + sum(_deep_size(x, seen) for x in inner)


def test_bases_are_derived_when_first_read_and_the_key_chain_is_kept(h5):
    """Universe(H_5) and its chi keep 63 KB traced (164 KB when the build cut
    every basis); reading the bases adds no more than the size of the basis
    list, which holds them, and the key chain that derived them stays as it
    was (Python 3.11)."""
    import gc
    import tracemalloc

    from hyperarr.lattice import Universe

    tracemalloc.start()
    try:
        uni = Universe(h5)
        uni.chi()
        gc.collect()
        unread = tracemalloc.get_traced_memory()[0]
        assert len(uni._basis) == 1  # the identity: nothing asked for one
        chain = uni._key, uni._keys
        for f in range(uni.flat_count()):
            uni.flat_kernel(f)
        gc.collect()
        read = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert unread < 120_000
    assert uni._key is chain[0] and uni._keys is chain[1]
    assert read - unread <= _deep_size(uni._basis)


def test_a_partial_build_keeps_the_frontier_and_a_full_one_drops_it(h5):
    from hyperarr.lattice import Universe

    part = Universe(h5, up_to_rank=3)
    # the key ids of the children rows of rank 2, which the pass of rank 3 reads
    covers, start = part._frontier, part.children.start
    assert len(covers) == start[part.by_rank[3][0]] - start[part.by_rank[2][0]]
    assert max(covers) + 1 == len(part._keys[2])
    # bases read from a partial build, then more ranks, then the rest
    first = [part.flat_kernel(f) for f in range(part.flat_count())]
    assert part._key is not None
    part.extend(4)
    assert part._frontier is not None
    part.extend()
    assert part._frontier is None and part._key is not None
    whole = Universe(h5)
    assert whole._frontier is None
    bases = [whole.flat_kernel(f) for f in range(whole.flat_count())]
    assert [part.flat_kernel(f) for f in range(part.flat_count())] == bases
    assert bases[: len(first)] == first and part._key is not None


def test_the_candidate_rays_of_h5_derive_the_lines_and_their_first_parent_ancestors(h5):
    """regions._candidate_rays reads the basis of each line of H_5; the
    bases derived are those of the lines and of their first parents, up to
    the ambient flat: 324 of the 568 flats."""
    from hyperarr import lattice
    from hyperarr.regions import _candidate_rays

    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        _candidate_rays(h5)
        uni = lattice._universe_cache[h5]
    finally:
        lattice._universe_cache.update(saved)
    chain = {0}  # the lines and their first-parent ancestors
    for f in uni.by_rank[uni.arr_rank - 1]:
        while f not in chain:
            chain.add(f)
            f = uni.parents[f][0]
    derived = {f for f, basis in enumerate(uni._basis) if basis is not None}
    assert derived == chain and (len(derived), uni.flat_count()) == (324, 568)


def test_analyze_h6_derives_no_basis_of_its_master_lattice():
    from hyperarr import analyze, lattice

    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        arr = hyperpolygonal(6)
        analyze(arr)
        uni = lattice._universe_cache[arr]
        assert uni.is_full and len(uni._basis) == 1 and uni._frontier is None
    finally:
        lattice._universe_cache.update(saved)
