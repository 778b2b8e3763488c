"""Tests for region enumeration, simpliciality, separation, and zeta polynomials."""

import pytest

import oracles
from hyperarr import (
    enumerate_regions,
    from_vectors,
    hyperpolygonal,
    is_simplicial,
    is_simplicial_geometric,
    q_integer_product,
    region_count,
    restriction_to_hyperplane,
    separation,
    simplicial_defect,
    zaslavsky_region_count,
    zeta_polynomial,
    zeta_product_bases,
)
from hyperarr.lattice import bit_indices
from hyperarr.polynomials import evaluate


def test_region_counts(h2, h3, h4, bool3):
    assert len(enumerate_regions(h2)) == 8
    assert len(enumerate_regions(h3)) == 32
    assert len(enumerate_regions(h4)) == 192
    assert len(enumerate_regions(bool3)) == 8
    assert region_count(h3) == 32


def test_regions_sound_and_complete(h2, h3, bool3, generic4):
    for arr in (h2, h3, bool3, generic4):
        regs = enumerate_regions(arr)
        covs = regs.arrangement.covectors
        masks = set()
        for reg in regs.regions:
            point = oracles.interior_point(reg)
            assert oracles.sign_mask(covs, point) == reg.mask
            masks.add(reg.mask)
        assert len(masks) == len(regs)
        assert len(regs) == zaslavsky_region_count(arr)
        chi = oracles.whitney_chi(arr.dim, arr.covectors)
        assert len(regs) == abs(evaluate(chi, -1))


def test_regions_antipodally_closed(h2, h3, bool3, generic4):
    for arr in (h2, h3, bool3, generic4):
        regs = enumerate_regions(arr)
        full = (1 << len(regs.arrangement)) - 1
        masks = set(regs.masks)
        assert {full ^ m for m in masks} == masks


def test_regions_accept_non_essential_input():
    arr = from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    regs = enumerate_regions(arr)
    assert len(regs) == 4
    assert regs.arrangement.dim == 2


def test_simplicial_defect_values(h2, h4, generic4):
    assert simplicial_defect(h2) == 0
    assert simplicial_defect(h4) == 0
    assert simplicial_defect(generic4) == 6


def test_geometric_simpliciality_matches_defect(h2, h3, h4, bool3, generic4, random_pool):
    samples = [h2, h3, h4, bool3, generic4]
    samples += [
        from_vectors(dim, covs)
        for dim, covs in random_pool
        if dim <= 3 and len(covs) <= 6
    ][:10]
    for arr in samples:
        if arr.rank == 0:
            continue
        regs = enumerate_regions(arr)
        assert is_simplicial_geometric(regs) == (simplicial_defect(arr) == 0)
        assert is_simplicial(arr) == is_simplicial_geometric(regs)


def test_simplicial_regions_have_rank_many_rays(h2, h4):
    for arr in (h2, h4):
        regs = enumerate_regions(arr)
        rank = regs.arrangement.dim
        assert all(reg.ray_count == rank for reg in regs.regions)


def test_separation_basics(h3):
    regs = enumerate_regions(h3)
    m = len(regs.arrangement)
    full = (1 << m) - 1
    for mask in regs.masks:
        assert separation(mask, mask) == 0
        assert separation(mask, full ^ mask) == m
    a, b = regs.masks[0], regs.masks[1]
    assert separation(a, b) == separation(b, a)


def test_wall_crossing_pairs_count(h2, h3):
    for arr in (h2, h3):
        regs = enumerate_regions(arr)
        adjacent = sum(
            1
            for a in regs.masks
            for b in regs.masks
            if separation(a, b) == 1
        )
        boundary_total = sum(
            region_count(restriction_to_hyperplane(arr, i)) for i in range(len(arr))
        )
        assert adjacent == 2 * boundary_total


def test_zeta_polynomial_values(h2):
    regs = enumerate_regions(h2)
    expected = q_integer_product((1, 3))
    assert expected == (1, 2, 2, 2, 1)
    for base in range(len(regs)):
        assert zeta_polynomial(regs, base) == expected
    single = enumerate_regions(from_vectors(2, [(1, 0)]))
    assert zeta_polynomial(single, 0) == (1, 1)


def test_zeta_polynomial_rejects_a_base_outside_the_regions(h2):
    """A negative index used to read a region from the end of the list."""
    regs = enumerate_regions(h2)
    assert zeta_polynomial(regs, len(regs) - 1) == (1, 2, 2, 2, 1)
    for base in (-1, -len(regs), len(regs), len(regs) + 5):
        with pytest.raises(IndexError, match="out of range"):
            zeta_polynomial(regs, base)


def test_zeta_counts_all_regions_and_is_palindromic(h3, bool3):
    for arr in (h3, bool3):
        regs = enumerate_regions(arr)
        for base in range(0, len(regs), 5):
            z = zeta_polynomial(regs, base)
            assert evaluate(z, 1) == len(regs)
            assert z == tuple(reversed(z))
            assert len(z) == len(regs.arrangement) + 1


def test_zeta_product_bases(h2, h3, h4, bool3):
    rs2 = enumerate_regions(h2)
    assert zeta_product_bases(rs2, (1, 3)) == list(range(8))
    rs3 = enumerate_regions(h3)
    good3 = zeta_product_bases(rs3, (1, 3, 3))
    assert len(good3) == 24
    target3 = q_integer_product((1, 3, 3))
    for base in range(len(rs3)):
        assert (zeta_polynomial(rs3, base) == target3) == (base in set(good3))
    rs4 = enumerate_regions(h4)
    good4 = zeta_product_bases(rs4, (1, 3, 3, 5))
    assert len(good4) == 192
    rsb = enumerate_regions(bool3)
    assert zeta_product_bases(rsb, (1, 1, 1)) == list(range(8))


# -- differential check of the chamber layer -----------------------------------


def _fraction_candidate_rays(ess):
    """The previous _candidate_rays: a Fraction kernel per line."""
    from hyperarr.exactlinalg import primitive_kernel_basis
    from hyperarr.lattice import bit_indices, universe

    uni = universe(ess)
    cands = []
    for f in uni.by_rank[ess.dim - 1]:
        (v,) = primitive_kernel_basis([ess.covectors[h] for h in bit_indices(uni.bits[f])], ess.dim)
        cands += [v, tuple(-x for x in v)]
    return cands


def _rank_test_regions(arr):
    """The previous enumerate_regions: candidate rays from a Fraction kernel
    per line, and a DFS that rebuilds an echelon at every pruned child.
    Returns the regions and the candidate rays."""
    from hyperarr.arrangement import essentialize
    from hyperarr.exactlinalg import IntEchelon
    from hyperarr.lattice import bit_indices
    from hyperarr.regions import Region, RegionSet

    ess = essentialize(arr) if not arr.is_essential else arr
    m, ell = len(ess), ess.dim
    if m == 0:
        return RegionSet(ess, (Region(0, ()),)), []
    cands = _fraction_candidate_rays(ess)
    kill_if_plus, kill_if_minus = [0] * m, [0] * m
    for k, v in enumerate(cands):
        for i, c in enumerate(ess.covectors):
            d = sum(a * b for a, b in zip(c, v))
            if d < 0:
                kill_if_plus[i] |= 1 << k
            elif d > 0:
                kill_if_minus[i] |= 1 << k

    def has_full_rank(alive):
        ech = IntEchelon(ell)
        for k in bit_indices(alive):
            ech.add(cands[k])
            if ech.rank == ell:
                return True
        return False

    full_alive = (1 << len(cands)) - 1
    if not has_full_rank(full_alive):
        raise ValueError("arrangement is not essential")
    found = []
    stack = [(0, 0, full_alive & ~kill_if_plus[0])]
    if not has_full_rank(stack[0][2]):
        stack = []
    while stack:
        i, smask, alive = stack.pop()
        i += 1
        if i == m:
            found.append((smask | 1, alive))
            continue
        for bit, kill in ((1 << i, kill_if_plus[i]), (0, kill_if_minus[i])):
            child = alive & ~kill
            if child == alive or has_full_rank(child):
                stack.append((i, smask | bit, child))
    full_m = (1 << m) - 1
    regions = []
    for smask, alive in found:
        regions.append(Region(smask, tuple(cands[k] for k in bit_indices(alive))))
        mirrored = sum(1 << (k ^ 1) for k in bit_indices(alive))
        regions.append(Region(smask ^ full_m, tuple(cands[k] for k in bit_indices(mirrored))))
    regions.sort(key=lambda r: r.mask)
    return RegionSet(ess, tuple(regions)), cands


def _dim5_arrangement(seed, size):
    import random

    rng = random.Random(seed)
    covs = set()
    while len(covs) < size:
        v = tuple(rng.randint(-2, 2) for _ in range(5))
        if any(v):
            covs.add(v)
    return from_vectors(5, sorted(covs))


def _low_prefix_dim5_arrangement(seed, size):
    """Seeded distinct hyperplanes in dimension 5 whose first five span only a
    3-dimensional space (their last two entries are zero), so the search's
    early prefix cones are not pointed; the rest are drawn freely."""
    import random

    from hyperarr.arrangement import canonicalize

    rng = random.Random(seed)
    covs = {}
    while len(covs) < size:
        v = [rng.randint(-2, 2) for _ in range(5)]
        if len(covs) < 5:
            v[3] = v[4] = 0
        if any(v):
            covs.setdefault(canonicalize(v), None)
    return from_vectors(5, list(covs))


def test_bit_test_dfs_matches_rank_test_dfs():
    import random

    from hyperarr.lattice import universe
    from hyperarr.regions import _candidate_rays

    pool = [
        from_vectors(dim, covs)
        for dim, covs in oracles.random_arrangements(50, seed=606, max_dim=5, max_size=9)
    ]
    pool += [hyperpolygonal(n) for n in range(2, 6)]
    pool += [_dim5_arrangement(seed, size) for seed, size in ((61, 12), (62, 13), (63, 14))]
    low = [_low_prefix_dim5_arrangement(seed, size) for seed, size in ((64, 10), (65, 12), (66, 13))]
    for arr in low:
        assert arr.rank == 5 and oracles.frac_rank(arr.covectors[:5]) < 5
    pool += low
    # sheared copies with entries past 2^40, whose sign rows take the dot
    # products one by one past the lane bound
    rng = random.Random(41)
    pool += [
        from_vectors(a.dim, oracles.wide_shear(a.dim, a.covectors, rng)) for a in (hyperpolygonal(3), hyperpolygonal(4))
    ]
    assert {arr.dim for arr in pool} >= {2, 3, 4, 5}
    flipped = 0
    routes = {"lanes": 0, "one by one": 0}
    for arr in pool:
        got = enumerate_regions(arr)
        want, cands = _rank_test_regions(arr)
        assert got == want
        assert len(got) == zaslavsky_region_count(arr)
        ess = got.arrangement
        if len(ess):
            # a region holds one ray of each pair, so only this list shows
            # whether each pair is listed positive-first
            assert _candidate_rays(ess) == cands
            reach = max(abs(x) for c in ess.covectors for x in c) * max(sum(map(abs, v)) for v in cands)
            routes["lanes" if reach < 1 << 62 else "one by one"] += 1
            uni = universe(ess)
            flipped += sum(next(x for x in uni.flat_kernel(f)[0] if x) < 0 for f in uni.by_rank[ess.dim - 1])
    assert flipped  # some stored line bases start negative and get turned
    assert routes["lanes"] and routes["one by one"] == 2


def test_dim5_regions_are_pointed_and_open():
    """What the rank test used to guarantee, checked by the oracles: every
    region's rays span the space, the sum of its rays lies strictly on the
    region's sides, and the count is Zaslavsky's.  The oracles run on the
    regions positive on h_0; each other region must be the negative of one
    of those, which carries both properties over."""
    for seed, size in ((71, 12), (72, 13), (73, 14)):
        arr = _dim5_arrangement(seed, size)
        assert arr.rank == 5
        regs = enumerate_regions(arr)
        covs = regs.arrangement.covectors
        full = (1 << len(covs)) - 1
        by_mask = {reg.mask: reg for reg in regs.regions}
        assert len(by_mask) == len(regs) == zaslavsky_region_count(arr)
        for reg in regs.regions:
            if not reg.mask & 1:
                continue
            assert oracles.frac_rank(reg.rays) == 5
            assert oracles.sign_mask(covs, oracles.interior_point(reg)) == reg.mask
            twin = by_mask[reg.mask ^ full]
            assert sorted(twin.rays) == sorted(tuple(-x for x in r) for r in reg.rays)


def _full_scan_zeta_bases(regs, exponents):
    """The previous zeta_product_bases: every base region scanned."""
    target = q_integer_product(exponents)
    return [bi for bi in range(len(regs)) if zeta_polynomial(regs, bi) == target]


def _zeta_cases(h2, h3, h4):
    """(arrangement, exponents) pairs: the family's own, random
    subarrangements of H_4 whose zeta is a q-product at some base, and
    q-products that are too long, too short or of the right length."""
    import itertools
    import random

    cases = [(h2, (1, 3)), (h3, (1, 3, 3)), (h4, (1, 3, 3, 5)), (h4, (1, 3, 4, 4))]
    rng = random.Random(3)
    draws = 0
    while len(cases) < 16:  # random subarrangements of H_4 with a q-product zeta
        draws += 1
        assert draws <= 100  # bounded, so a broken enumeration fails instead of looping
        sub = h4.subset(rng.sample(range(len(h4)), rng.randint(5, 10)))
        if sub.rank < 3:
            continue
        regs = enumerate_regions(sub)
        zetas = {zeta_polynomial(regs, bi) for bi in range(len(regs))}
        for exps in itertools.combinations_with_replacement(range(1, len(sub) + 1), sub.rank):
            if sum(exps) == len(sub) and q_integer_product(exps) in zetas:
                cases.append((sub, exps))
    # q-products longer than |A| + 1, shorter than it, and of that length
    # (all but the last with the right region total, so only the coefficients
    # can tell them apart)
    cases += [(h3, (31,)), (h3, (1, 3, 4)), (h3, (1, 1, 1, 1, 1)), (h3, (3, 1, 1, 1)), (h3, (1, 2, 4))]
    return cases


def test_zeta_product_bases_matches_full_scan(h2, h3, h4):
    partial = 0
    for arr, exps in _zeta_cases(h2, h3, h4):
        regs = enumerate_regions(arr)
        got = zeta_product_bases(regs, exps)
        assert got == _full_scan_zeta_bases(regs, exps)
        assert got == sorted(set(got))
        partial += 0 < len(got) < len(regs)
    assert partial >= 5  # only some bases qualify


def _recount_zeta_bases(regs, exponents):
    """The scan before the Gray-order walk: every base of an antipodal pair
    adds its m columns, flipped where the base is positive, into fresh
    bit-sliced counters."""
    target = q_integer_product(exponents)
    masks = regs.masks
    n = len(masks)
    m = len(regs.arrangement)
    if len(target) > m + 1 or sum(target) != n:
        return []
    lanes = (1 << n) - 1
    cols = [0] * m
    for r, mk in enumerate(masks):
        for h in bit_indices(mk):
            cols[h] |= 1 << r
    flipped = [c ^ lanes for c in cols]
    width = m.bit_length()
    full = (1 << m) - 1
    index = {mk: i for i, mk in enumerate(masks)}
    hit = [False] * n
    for bi, base in enumerate(masks):
        twin = index.get(base ^ full)
        if twin is not None and twin < bi:
            hit[bi] = hit[twin]
            continue
        planes = [0] * width
        for h in range(m):
            carry = flipped[h] if (base >> h) & 1 else cols[h]
            for j in range(width):
                p = planes[j]
                planes[j] = p ^ carry
                carry &= p
                if not carry:
                    break
        for k, want in enumerate(target):
            eq = lanes
            for j, p in enumerate(planes):
                eq &= p if (k >> j) & 1 else ~p
            if eq.bit_count() != want:
                break
        else:
            hit[bi] = True
    return [bi for bi, ok in enumerate(hit) if ok]


def test_zeta_gray_walk_matches_the_recount_per_base(h2, h3, h4, h5):
    """The Gray-order walk with one +-1 update per flipped hyperplane finds
    the bases that recounting every base from scratch found."""
    import itertools

    from hyperarr import chi_integer_roots

    cases = [(h5, (1, 5, 5, 5, 5)), (h4, (1, 3, 3, 5))] + _zeta_cases(h2, h3, h4)
    empty = from_vectors(3, [])
    cases += [(empty, ()), (empty, (1,)), (empty, (0, 0, 0))]
    split = 0
    for dim, covs in oracles.random_arrangements(1500, seed=2929, max_dim=4, max_size=10):
        if dim < 3:
            continue
        arr = from_vectors(dim, covs)
        if arr.rank < 3 or len(arr) == arr.rank:  # boolean ones split trivially
            continue
        roots = chi_integer_roots(arr)
        if roots is None:
            continue
        split += 1
        cases.append((arr, roots))
        # every q-product that is the zeta of some base, so the walk must hit
        regs = enumerate_regions(arr)
        zetas = {zeta_polynomial(regs, bi) for bi in range(len(regs))}
        for exps in itertools.combinations_with_replacement(range(1, len(arr) + 1), arr.rank):
            if sum(exps) == len(arr) and q_integer_product(exps) in zetas:
                cases.append((arr, exps))
    assert split >= 20
    hits = partial = 0
    for arr, exps in cases:
        regs = enumerate_regions(arr)
        got = zeta_product_bases(regs, exps)
        assert got == _recount_zeta_bases(regs, exps), (arr, exps)
        hits += bool(got)
        partial += 0 < len(got) < len(regs)
    assert zeta_product_bases(enumerate_regions(empty), ()) == [0]
    assert zeta_product_bases(enumerate_regions(h5), (1, 5, 5, 5, 5)) == []
    assert len(zeta_product_bases(enumerate_regions(h4), (1, 3, 3, 5))) == 192
    assert hits >= 20 and partial >= 5


def test_q_integer_product_values():
    assert q_integer_product(()) == (1,)
    assert q_integer_product((2,)) == (1, 1, 1)
    assert q_integer_product((1, 1)) == (1, 2, 1)
