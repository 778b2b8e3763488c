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

The candidates come straight from the lattice: Universe.flat_kernel gives an
integer basis of every flat in the coordinates of the essentialization, the
one the build read traces in, derived from its key chain when first read; a
one-dimensional flat's basis is one vector, not primitive, which is made
primitive with its first nonzero entry positive.

That gives an exact enumeration with no numeric feasibility solver and no
linear algebra.  The depth-first search fixes the signs of h_0, h_1, ... in
turn; a node is a nonempty open prefix cone C (signs fixed on h_0..h_{i-1})
with its alive set, the candidates weakly on the fixed side of each of those
hyperplanes.  The closure of C is the union of the closures of the regions
inside C; each of those is pointed, the input being essential, and spanned by
its extreme rays, which are alive.  The alive candidates lie in closure(C),
so closure(C) = cone(alive(C)).  C is open and dense in its closure, so it
meets the open side h_i > 0 exactly when its closure does, that is, when
some alive candidate is strictly positive on h_i; likewise for the negative
side.  So a child is pushed after one bit test against the candidates
strictly on its side, and the search visits exactly the prefixes of genuine
regions.  At a full sign vector the alive candidates are the region's extreme
rays.

The bit tests read two sign rows per hyperplane: the candidates strictly on
its positive side and those strictly on its negative side.  Both come from
one packed product per hyperplane.  The lines' rays are packed into 64-bit
lanes, one integer per coordinate, so one multiply-add per coordinate gives
the dot products of a normal with every ray, and the rows are read off the
lanes' sign bits.  The lanes are exact while every dot product stays below
the lane bound 2^62 in absolute value, which max|c| * max sum|v_i| over the
normals c and rays v bounds; an input at or past it (sheared normals with
entries near 2^40, say) takes the dot products one by one, and the rows are
the same either way.

The rank generating function of the poset of regions based at B counts
regions by the number of hyperplanes separating them from B; it is compared
against the product of q-integers built from the exponents.  The scan over
bases keeps every region's distance from a moving sign vector in a
bit-sliced counter, one lane per region.  The counter starts at the
all-negative sign vector, where a region's distance is the popcount of its
mask, and moves by one +-1 update per flipped hyperplane; a distance is
never below 0 or above m, so m.bit_length() planes hold it.  It visits one
base per antipodal pair, the one with bit 0 set, in reflected-Gray-code
order, so consecutive bases differ in few hyperplanes.  The columns it
reads, the regions' sign bits on each hyperplane, are built in one linear
pass each, from a string of bits.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul
from typing import NamedTuple, Sequence

from .arrangement import Arrangement, essentialize
from .exactlinalg import primitive
from .lattice import bit_indices, universe, zaslavsky_region_count
from .polynomials import IntPoly, evaluate, multiply, trim


class Region(NamedTuple):
    """One region: sign bitmask (bit i set = positive side of form i) and the
    primitive direction vectors of its extreme rays."""

    mask: int
    rays: tuple[tuple[int, ...], ...]

    @property
    def ray_count(self) -> int:
        return len(self.rays)


class RegionSet:
    """All regions of (the essentialization of) an arrangement.

    A frozen value: equal sets hash alike, and assigning an attribute raises
    AttributeError.
    """

    arrangement: Arrangement  # essential model; hyperplane order preserved
    regions: tuple[Region, ...]

    def __init__(self, arrangement: Arrangement, regions: tuple[Region, ...]):
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "regions", regions)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arrangement == other.arrangement and self.regions == other.regions

    def __hash__(self) -> int:
        return hash((self.arrangement, self.regions))

    def __repr__(self) -> str:
        return f"RegionSet(arrangement={self.arrangement!r}, regions={self.regions!r})"

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(r.mask for r in self.regions)


def _candidate_rays(arr: Arrangement) -> list[tuple[int, ...]]:
    """Both signed primitive spanning vectors of every one-dimensional flat of
    the essentialization, in the lattice coordinates of arr.

    flat_kernel gives one basis vector per such flat (a flat of rank
    rank(A) - 1), derived from the build's key chain on the first read; it
    is made primitive with its first nonzero entry positive
    (exactlinalg.primitive), then listed with its negative.
    """
    uni = universe(arr)
    ell = uni.arr_rank
    out: list[tuple[int, ...]] = []
    if ell == 0:
        return out
    for f in uni.by_rank[ell - 1]:
        v = primitive(uni.flat_kernel(f)[0])
        out.append(v)
        out.append(tuple(-x for x in v))
    return out


def _sign_rows(
    normals: Sequence[tuple[int, ...]], cands: list[tuple[int, ...]]
) -> tuple[list[int], list[int]]:
    """The candidates strictly on the positive and on the negative side of
    each normal, as two lists of bit rows: bit k of pos[i] is set when
    normal i has a positive dot product with candidate k, of neg[i] when a
    negative one.  Candidates come in pairs, v at 2t and -v at 2t + 1, so
    one dot product d_t = c . v serves both bits of a pair.

    The L rays v are packed once, coordinate by coordinate, into one integer
    per coordinate with a 64-bit lane per ray, from an array('q') of the
    coordinates biased by 2^62.  For a normal c, one multiply-add per
    coordinate, with the bias taken back out and 2^63 put into every lane,
    leaves 2^63 + d_t in lane t, free of borrows.  A lane's top bit is set
    exactly when d_t >= 0 and, once 1 is taken from every lane, exactly when
    d_t > 0; to_bytes lays the lanes out highest first, every eighth byte is
    a lane's top byte, and translate turns those into the '0'/'1' digits of
    the two rows, interleaved pair by pair and read by int(..., 2).  That is
    exact while every |d_t| < 2^62, which max|c| * max sum|v_i| below 2^62
    bounds; at or past that bound the digits come from the dot products one
    by one.  The normals are nonzero, so below the bound every biased
    coordinate fits its lane too.
    """
    rays = cands[0::2]
    n = len(rays)
    entry = max((abs(x) for c in normals for x in c), default=0)
    if entry * max((sum(map(abs, v)) for v in rays), default=0) >> 62:
        # highest ray first, as the rows read in binary
        dots = [[sum(map(mul, c, v)) for v in reversed(rays)] for c in normals]
        digits = [(bytes(48 + (d > 0) for d in row), bytes(48 + (d < 0) for d in row)) for row in dots]
    else:
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")
        packed = []
        for col in zip(*rays):
            lanes = array("q", [x + (1 << 62) for x in col])
            if sys.byteorder == "big":
                lanes.byteswap()
            packed.append(int.from_bytes(lanes.tobytes(), "little"))
        is_one = bytes(48 + (b >> 7) for b in range(256))  # '1' where a byte's top bit is set
        is_zero = bytes(49 - (b >> 7) for b in range(256))
        digits = []
        for c in normals:
            acc = ((1 << 63) - (sum(c) << 62)) * ones
            for ci, p in zip(c, packed):
                if ci:
                    acc += ci * p
            gt = (acc - ones).to_bytes(8 * n, "big")[0::8].translate(is_one)
            lt = acc.to_bytes(8 * n, "big")[0::8].translate(is_zero)
            digits.append((gt, lt))
    pos: list[int] = []
    neg: list[int] = []
    row = bytearray(2 * n)
    for gt, lt in digits:
        # -v, candidate 2t + 1, comes before v in the highest-first digits
        row[0::2], row[1::2] = lt, gt
        pos.append(int(row, 2))
        row[0::2], row[1::2] = gt, lt
        neg.append(int(row, 2))
    return pos, neg


def enumerate_regions(arr: Arrangement) -> RegionSet:
    """Enumerate all regions with their extreme rays.

    The rays come from the lattice of arr, whose coordinates are those of
    the essentialization; the result carries that as its arrangement (same
    hyperplane indices, same region bitmasks), with the ray vectors in its
    coordinates.  The search over sign prefixes branches by bit tests only:
    closure(C) = cone(alive(C)) for a prefix cone C, so a side of the next
    hyperplane meets C exactly when an alive candidate lies strictly on it
    (see the module docstring).
    """
    ess = essentialize(arr)
    m = len(ess)
    if m == 0:
        return RegionSet(ess, (Region(0, ()),))
    cands = _candidate_rays(arr)
    everything = (1 << len(cands)) - 1
    # the normals of universe(arr); a child's alive set drops the candidates
    # strictly on the other side of its hyperplane, so the search keeps the
    # complements of the sign rows
    stay_neg, stay_pos = ([everything ^ row for row in rows] for rows in _sign_rows(ess.covectors, cands))
    # a pointed cone never holds both v and -v, so a region's rays read
    # through the pair swap keep the order of the antipodal region's rays
    antipodes = [cands[k ^ 1] for k in range(len(cands))]
    pick, pick_antipode = cands.__getitem__, antipodes.__getitem__

    full_m = (1 << m) - 1
    regions: list[Region] = []
    # antipodal symmetry fixes the first hyperplane positive and mirrors each
    # region found; h_0 is nonzero, so the root cone h_0 > 0 is nonempty
    stack = [(1, 1, stay_pos[0])]
    while stack:
        i, smask, alive = stack.pop()
        if i == m:
            idx = bit_indices(alive)
            regions.append(Region(smask, tuple(map(pick, idx))))
            regions.append(Region(smask ^ full_m, tuple(map(pick_antipode, idx))))
            continue
        up, down = alive & stay_pos[i], alive & stay_neg[i]
        # an alive candidate lies strictly on one side exactly when the other
        # side's child drops it
        if down != alive:
            stack.append((i + 1, smask | 1 << i, up))
        if up != alive:
            stack.append((i + 1, smask, down))
    regions.sort(key=lambda r: r.mask)
    return RegionSet(ess, tuple(regions))


def region_count(arr: Arrangement) -> int:
    """Number of regions, by evaluation of the characteristic polynomial."""
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
    total_regions = zaslavsky_region_count(arr)
    walls = 0
    for atom in uni.by_rank[1]:
        walls += abs(evaluate(uni.node_chi(atom, uni._full_mask), -1))
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
    coefficient of t^k counts regions separated from the base by k hyperplanes.
    A base index outside 0..len(regs) - 1 raises IndexError."""
    masks = regs.masks
    if not 0 <= base_index < len(masks):
        raise IndexError(f"base region {base_index} out of range 0..{len(masks) - 1}")
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

    Region r is lane r of a few big integers.  Column h holds the regions'
    sign bits on hyperplane h; it is built in one linear pass, by joining
    those bits into one binary string.  A bit-sliced counter of
    m.bit_length() planes holds, in lane r, the number of hyperplanes that
    separate region r from a sign vector s, the current base.  At s = 0, the
    all-negative sign vector, that is the popcount of the region's mask: the
    m columns are added once.  The base then moves.  Flipping bit h of s
    adds 1 to the lanes that agree with the old s on h and subtracts 1 from
    the others, one bit-sliced +-1 update.  Every lane stays a separation,
    in 0..m, so the planes never overflow, and s need not be a region on
    the way.  The coefficient of t^k at a base is the number of lanes whose
    counter reads k; they are read for k = 0, 1, ... up to the first that
    differs from the target, each k reading again only the planes up to its
    highest bit that changed from k - 1.  Every base has exactly len(regs)
    regions at distances 0..m, so a target that is longer than m+1 or does
    not sum to len(regs) matches no base.

    The regions of a central arrangement come in antipodal pairs {B, -B},
    and negation maps the regions k hyperplanes from B onto those k
    hyperplanes from -B, so only the base of each pair with bit 0 set is
    scanned; the empty arrangement's one region is its own antipode.  Those
    bases are visited in reflected-Gray-code order, where neighbouring
    masks share more bits than in mask order, so the walk makes fewer
    flips.  The result is ascending.
    """
    target = q_integer_product(exponents)
    masks = regs.masks
    n = len(masks)
    m = len(regs.arrangement)
    if len(target) > m + 1 or sum(target) != n:
        return []
    lanes = (1 << n) - 1
    # a row is bits 0..m-1 of one mask, lowest first; the rows run from the
    # last region to the first, so column h read in binary has region r at bit r
    rows = [format(mk | 1 << m, "b")[:0:-1] for mk in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)]
    width = m.bit_length()
    planes = [0] * width

    def step(move: int, differ: int) -> None:
        """Add 1 to the lanes of move outside differ, subtract 1 from those
        in it: a lane's carry or borrow moves up a plane while its old bit
        there is 1 for a gain, 0 for a loss."""
        for j in range(width):
            p = planes[j]
            planes[j] = p ^ move
            move &= p ^ differ
            if not move:
                break

    for col in cols:
        step(col, 0)
    bases = sorted((mk for mk in masks if mk & 1 or not m), key=lambda g: _gray_rank(g, m))
    hits = set()
    s = 0
    for base in bases:
        flips = s ^ base
        while flips:
            low = flips & -flips
            flips ^= low
            col = cols[low.bit_length() - 1]
            step(lanes, col ^ lanes if s & low else col)
        s = base
        # eq[j]: the lanes whose planes j.. read as bits j.. of k; k counts
        # up, so only the planes up to its highest changed bit are read again
        eq = [lanes] * (width + 1)
        top = width
        for k, want in enumerate(target):
            for j in range(top - 1, -1, -1):
                eq[j] = eq[j + 1] & (planes[j] if k >> j & 1 else ~planes[j])
            if eq[0].bit_count() != want:
                break
            top = (k ^ (k + 1)).bit_length()
        else:
            hits.add(base)
    full = (1 << m) - 1
    return [i for i, mk in enumerate(masks) if mk in hits or mk ^ full in hits]


def _gray_rank(g: int, m: int) -> int:
    """Position of the m-bit mask g in the reflected Gray code: the prefix
    xor of its bits from the top, in log2(m) shifted xors."""
    shift = 1
    while shift < m:
        g ^= g >> shift
        shift <<= 1
    return g
