"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive and self-contained (Fractions and
brute-force subset sweeps only) so that agreement with the package is
meaningful evidence, not a tautology.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def frac_rank(vectors) -> int:
    """Rank over Q by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    col = 0
    while col < n and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def whitney_chi(dim: int, covectors) -> tuple[int, ...]:
    """chi(t) = sum over subsets S of (-1)^{|S|} t^{dim - rank(S)},
    as an ascending coefficient tuple."""
    covectors = list(covectors)
    coeffs = [0] * (dim + 1)
    for k in range(len(covectors) + 1):
        for subset in itertools.combinations(covectors, k):
            coeffs[dim - frac_rank(subset)] += (-1) ** k
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def subtract(p, q) -> tuple[int, ...]:
    """p - q on ascending coefficient tuples, trailing zeros trimmed."""
    n = max(len(p), len(q))
    coeffs = [(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) if coeffs else (0,)


def from_roots(roots) -> tuple[int, ...]:
    """prod (t - b) over the roots b, as an ascending coefficient tuple."""
    coeffs = [1]
    for b in roots:
        shifted = [0] + coeffs
        coeffs = [a - b * c for a, c in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def degree(p) -> int:
    """Degree of an ascending coefficient tuple, trailing zeros ignored (0 for
    a constant, the zero polynomial included)."""
    coeffs = list(p)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return max(len(coeffs) - 1, 0)


def brute_flat_sets(covectors) -> set[frozenset[int]]:
    """All flats as closed hyperplane-index sets, by sweeping every subset:
    the closure of S is every index whose covector lies in span(S)."""
    covectors = list(covectors)
    m = len(covectors)
    out: set[frozenset[int]] = set()
    for k in range(m + 1):
        for subset in itertools.combinations(range(m), k):
            base = [covectors[i] for i in subset]
            r = frac_rank(base)
            closed = frozenset(
                i for i in range(m) if frac_rank(base + [covectors[i]]) == r
            )
            out.add(closed)
    return out


def brute_mobius(flat_sets: set[frozenset[int]]) -> dict[frozenset[int], int]:
    """Moebius function of the closed-set poset ordered by inclusion,
    from the bottom (the empty closure)."""
    bottom = min(flat_sets, key=len)
    order = sorted(flat_sets, key=len)
    mob: dict[frozenset[int], int] = {}
    for x in order:
        if not bottom <= x:
            continue
        if x == bottom:
            mob[x] = 1
            continue
        mob[x] = -sum(mob[y] for y in order if bottom <= y <= x and y != x and y in mob)
    return mob


def sign_mask(covectors, point) -> int:
    """Sign bitmask of an exact point: bit i set iff covector_i . point > 0.
    Raises if the point lies on any hyperplane."""
    mask = 0
    for i, c in enumerate(covectors):
        d = sum(Fraction(a) * Fraction(b) for a, b in zip(c, point))
        if d == 0:
            raise ValueError(f"point lies on hyperplane {i}")
        if d > 0:
            mask |= 1 << i
    return mask


def interior_point(region) -> tuple[int, ...]:
    """An exact interior point of a region: the sum of its extreme rays."""
    if not region.rays:
        raise ValueError("region carries no rays")
    n = len(region.rays[0])
    return tuple(sum(r[i] for r in region.rays) for i in range(n))


def random_arrangements(count: int, seed: int, max_dim: int = 4, max_size: int = 10):
    """Deterministic stream of small random arrangements as (dim, covectors)
    pairs with distinct canonical covectors, entries in {-2..2}."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        size = rng.randint(1, max_size)
        seen: dict[tuple[int, ...], None] = {}
        for _ in range(40 * size):
            v = [rng.randint(-2, 2) for _ in range(dim)]
            if not any(v):
                continue
            for x in v:
                if x:
                    if x < 0:
                        v = [-y for y in v]
                    break
            from math import gcd

            g = 0
            for x in v:
                g = gcd(g, x)
            v = tuple(x // g for x in v)
            seen[v] = None
            if len(seen) == size:
                break
        if seen:
            out.append((dim, tuple(seen.keys())))
    return out


def wide_shear(dim: int, covectors, rng: random.Random) -> list[list[int]]:
    """The covectors under a unipotent change of coordinates whose entries
    above the diagonal are 2^40 plus a small random offset: the same matroid,
    with entries near 2^40 and beyond."""
    big = 1 << 40
    shear = [[int(i == j) + (big + rng.randrange(99)) * (i < j) for j in range(dim)] for i in range(dim)]
    return [[sum(c[i] * shear[i][j] for i in range(dim)) for j in range(dim)] for c in covectors]
