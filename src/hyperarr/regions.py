"""Regions (chambers) of central essential arrangements, exactly.

A region is a connected component of the complement, i.e. a maximal open cone
on which every defining form has constant sign; it is encoded by the bitmask
of forms that are positive on it.  For a central essential arrangement every
region is a pointed full-dimensional cone, and its extreme rays all span
one-dimensional flats of the intersection lattice.  Conversely, a candidate
ray (a signed primitive spanning vector of a one-dimensional flat) that
weakly satisfies every sign constraint of a region is an extreme ray of its
closure: the smallest face of the closure containing the candidate is the
intersection with the flat it spans, which is one-dimensional.

The candidates come straight from the lattice build, which stores a
primitive integer basis of every flat: a one-dimensional flat's basis is one
vector, turned so that its first nonzero entry is positive.

That gives an exact enumeration with no numeric feasibility solver.  A sign
vector, partial or full, admits a strictly feasible point if and only if the
candidate rays compatible with it have full rank: a generic positive
combination of a full-rank compatible set satisfies all assigned constraints
strictly.  The depth-first search over sign assignments therefore prunes on
"compatible rays have rank below the dimension" and visits exactly the
prefixes of genuine regions.  Each node carries a witness of its full rank,
the mask of dim-many independent compatible rays.  A child that keeps every
witness ray inherits the witness with no linear algebra; otherwise an
echelon is seeded with the witness rays that survived and filled from the
child's other compatible rays, and failing to reach full rank prunes it.

The rank generating function of the poset of regions based at B counts
regions by the number of hyperplanes separating them from B; it is compared
against the product of q-integers built from the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, essentialize
from .exactlinalg import IntEchelon
from .lattice import bit_indices, universe
from .polynomials import IntPoly, multiply, trim


@dataclass(frozen=True)
class Region:
    """One region: sign bitmask (bit i set = positive side of form i) and the
    primitive direction vectors of its extreme rays."""

    mask: int
    rays: tuple[tuple[int, ...], ...]

    @property
    def ray_count(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class RegionSet:
    """All regions of (the essentialization of) an arrangement."""

    arrangement: Arrangement  # essential model; hyperplane order preserved
    regions: tuple[Region, ...]

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(r.mask for r in self.regions)


def _candidate_rays(ess: Arrangement) -> list[tuple[int, ...]]:
    """Both signed primitive spanning vectors of every one-dimensional flat.

    The lattice build stores one primitive basis vector per line; it is turned
    so that its first nonzero entry is positive, then listed with its negative.
    """
    ell = ess.dim
    out: list[tuple[int, ...]] = []
    if ell == 0:
        return out
    uni = universe(ess)
    for f in uni.by_rank[ell - 1]:
        (v,) = uni.flat_kernel(f)
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        out.append(v)
        out.append(tuple(-x for x in v))
    return out


def enumerate_regions(arr: Arrangement) -> RegionSet:
    """Enumerate all regions with their extreme rays.

    Works on the essentialization (same hyperplane indices, same region
    bitmasks); the ray vectors live in the essential coordinates.
    """
    ess = essentialize(arr) if not arr.is_essential else arr
    m = len(ess)
    ell = ess.dim
    if m == 0:
        return RegionSet(ess, (Region(0, ()),))
    cands = _candidate_rays(ess)
    nc = len(cands)
    full_alive = (1 << nc) - 1
    # per-hyperplane kill masks: branching positive kills the strictly
    # negative candidates and vice versa
    kill_if_plus = [0] * m
    kill_if_minus = [0] * m
    for k, v in enumerate(cands):
        for i, c in enumerate(ess.covectors):
            d = sum(ci * vi for ci, vi in zip(c, v))
            if d < 0:
                kill_if_plus[i] |= 1 << k
            elif d > 0:
                kill_if_minus[i] |= 1 << k

    def witness(alive: int, kept: int) -> int:
        """Mask of ell independent candidates of alive, starting from the
        independent candidates kept (a subset of alive); 0 if alive has rank
        below ell."""
        ech = IntEchelon(ell)
        rest = kept
        while rest:
            low = rest & -rest
            ech.add(cands[low.bit_length() - 1])
            rest ^= low
        out = kept
        rest = alive & ~kept
        while ech.rank < ell and rest:
            low = rest & -rest
            if ech.add(cands[low.bit_length() - 1]):
                out |= low
            rest ^= low
        return out if ech.rank == ell else 0

    wit = witness(full_alive, 0)
    if not wit:
        raise ValueError("arrangement is not essential")

    found: list[tuple[int, int]] = []  # (sign mask, alive candidate mask)
    # depth-first over sign assignments; antipodal symmetry fixes the first
    # hyperplane positive and mirrors at the end.  Each node carries a witness:
    # ell independent alive candidates, kept by every child that keeps them.
    alive = full_alive & ~kill_if_plus[0]
    wit = witness(alive, alive & wit)
    stack = [(0, 0, alive, wit)] if wit else []
    while stack:
        i, smask, alive, wit = stack.pop()
        i += 1
        if i == m:
            found.append((smask | 1, alive))
            continue
        for bit, kill in ((1 << i, kill_if_plus[i]), (0, kill_if_minus[i])):
            child = alive & ~kill
            if child & wit == wit:
                stack.append((i, smask | bit, child, wit))
            else:
                child_wit = witness(child, child & wit)
                if child_wit:
                    stack.append((i, smask | bit, child, child_wit))

    full_m = (1 << m) - 1
    regions: list[Region] = []
    for smask, alive in found:
        idx = bit_indices(alive)
        regions.append(Region(smask, tuple(cands[k] for k in idx)))
        # a pointed cone never holds both v and -v, so swapping each pair
        # (v at 2t, -v at 2t+1) keeps the order of the antipodal region's rays
        regions.append(Region(smask ^ full_m, tuple(cands[k ^ 1] for k in idx)))
    regions.sort(key=lambda r: r.mask)
    return RegionSet(ess, tuple(regions))


def region_count(arr: Arrangement) -> int:
    """Number of regions, by evaluation of the characteristic polynomial."""
    from .lattice import zaslavsky_region_count

    return zaslavsky_region_count(arr)


def simplicial_defect(arr: Arrangement) -> int:
    """Total facet excess over all regions: zero exactly when every region is
    a simplicial cone.

    Each region of an essential rank-ell arrangement has at least ell facets,
    with equality for all regions exactly in the simplicial case; summing
    facets by the hyperplane they lie on counts each region of a restriction
    twice.  A non-essential arrangement has the region and facet counts of its
    essentialization, with ell its rank.
    """
    ell = arr.rank
    m = len(arr)
    if m == 0:
        return 0
    uni = universe(arr)
    full = (1 << m) - 1
    b = uni.chi()
    total_regions = abs(sum(((-1) ** k) * c for k, c in enumerate(b)))
    walls = 0
    for h in range(m):
        chi_h = uni.node_chi(uni.index_of_bits[1 << h], full)
        walls += abs(sum(((-1) ** k) * c for k, c in enumerate(chi_h)))
    defect = 2 * walls - ell * total_regions
    if defect < 0:
        raise AssertionError("facet count below the simplicial minimum")
    return defect


def is_simplicial(arr: Arrangement) -> bool:
    """Counting test: every region has the minimum number of facets."""
    return simplicial_defect(arr) == 0


def is_simplicial_geometric(regs: RegionSet) -> bool:
    """Geometric test: every region cone has exactly dim-many extreme rays."""
    ell = regs.arrangement.dim
    return all(r.ray_count == ell for r in regs.regions)


def separation(a: int, b: int) -> int:
    """Number of hyperplanes separating two regions given by sign masks."""
    return (a ^ b).bit_count()


def zeta_polynomial(regs: RegionSet, base_index: int) -> IntPoly:
    """Rank generating function of the poset of regions based at one region:
    coefficient of t^k counts regions separated from the base by k hyperplanes."""
    masks = regs.masks
    base = masks[base_index]
    coeffs = [0] * (len(regs.arrangement) + 1)
    for mk in masks:
        coeffs[(base ^ mk).bit_count()] += 1
    return trim(coeffs)


def q_integer_product(exponents: tuple[int, ...]) -> IntPoly:
    """prod over e of (1 + t + ... + t^e)."""
    acc: IntPoly = (1,)
    for e in exponents:
        acc = multiply(acc, tuple([1] * (e + 1)))
    return acc


def zeta_product_bases(regs: RegionSet, exponents: tuple[int, ...]) -> list[int]:
    """Indices of base regions whose rank generating function equals the
    product of q-integers of the exponents.

    The distances from one base to all regions are summed lane-wise: region r
    is bit r of one big integer per hyperplane (its sign bit there, flipped
    where the base is positive), and the m columns are added into a
    bit-sliced counter of m.bit_length() planes, so each lane ends up holding
    the separation of its region from the base.  The coefficient of t^k is
    the number of lanes whose counter reads k; they are read for k = 0, 1, ...
    up to the first that differs from the target.  Every base has exactly
    len(regs) regions at distances 0..m, so a target that is longer than m+1
    or does not sum to len(regs) matches no base.

    The regions of a central arrangement come in antipodal pairs {B, -B},
    and negation maps the regions k hyperplanes from B onto those k
    hyperplanes from -B, so each pair is scanned once.
    """
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
