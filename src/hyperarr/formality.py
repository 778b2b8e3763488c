"""Formality, line closure, generation closure, and projective-uniqueness
witnesses.

Relation space: the linear dependencies among the defining covectors.  An
arrangement is (combinatorially) formal when the dependencies supported on
rank-2 flats already span the whole relation space; this is decided exactly
by stacking local kernels.  A line-closure basis certifies formality
combinatorially: a set of rank-many independent hyperplanes whose iterated
rank-2-flat closure recovers the whole arrangement.

Generation closure: starting from a seed set of hyperplanes, a hyperplane H
of the arrangement enters the next round when the flats of the intersection
lattice of the current set that lie inside H together span H.  A seed of
rank + 1 hyperplanes in general position is projectively rigid, and rigidity
propagates along generation rounds, so a connected such seed whose closure
reaches every hyperplane is a witness of projective uniqueness.  Rounds over
small current sets are decided exactly by walking the full sub-lattice; over
large current sets a sound pairwise certificate is used (two codimension-2
intersections inside H that together span it), and any hyperplane it cannot
certify is marked undecided rather than excluded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .arrangement import Arrangement
from .exactlinalg import IntEchelon, primitive_kernel_basis, rank_of
from .lattice import universe


def rank2_flats(arr: Arrangement) -> list[tuple[int, ...]]:
    """All rank-2 flats as sorted index tuples, by pairwise span scan."""
    m = len(arr)
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    done_pairs: set[tuple[int, int]] = set()
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) in done_pairs:
                continue
            ech = IntEchelon(arr.dim)
            ech.add(arr.covectors[i])
            ech.add(arr.covectors[j])
            members = tuple(
                k for k in range(m) if ech.contains(arr.covectors[k])
            )
            for a, b in itertools.combinations(members, 2):
                done_pairs.add((a, b))
            if members not in seen:
                seen.add(members)
                out.append(members)
    return out


def relation_space_dim(arr: Arrangement) -> int:
    """Dimension of the space of linear dependencies among the covectors."""
    return len(arr) - arr.rank


def is_formal(arr: Arrangement) -> bool:
    """True when the dependencies supported on rank-2 flats span all
    dependencies among the covectors."""
    m = len(arr)
    target = relation_space_dim(arr)
    if target == 0:
        return True
    ech = IntEchelon(m)
    for members in rank2_flats(arr):
        if len(members) < 3:
            continue
        cols = [arr.covectors[k] for k in members]
        transposed = [tuple(c[t] for c in cols) for t in range(arr.dim)]
        for lam in primitive_kernel_basis(transposed, len(members)):
            vec = [0] * m
            for pos, k in enumerate(members):
                vec[k] = lam[pos]
            ech.add(vec)
            if ech.rank == target:
                return True
    return ech.rank == target


def line_closure(
    arr: Arrangement, seed: Iterable[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Iterated rank-2-flat closure of a set of hyperplane indices.

    Returns (closed index set, rounds), where rounds[k] lists the indices
    first reached after k+1 rounds of adding every hyperplane lying on a
    rank-2 flat spanned by two current ones.
    """
    m = len(arr)
    current = set(seed)
    for i in current:
        if not 0 <= i < m:
            raise IndexError(f"hyperplane index {i} out of range")
    rounds: list[tuple[int, ...]] = []
    line_cache: dict[tuple[int, int], tuple[int, ...]] = {}
    while True:
        new: set[int] = set()
        cur = sorted(current)
        for ai in range(len(cur)):
            for bi in range(ai + 1, len(cur)):
                i, j = cur[ai], cur[bi]
                line = line_cache.get((i, j))
                if line is None:
                    ech = IntEchelon(arr.dim)
                    ech.add(arr.covectors[i])
                    ech.add(arr.covectors[j])
                    if ech.rank < 2:
                        line = (i, j)
                    else:
                        line = tuple(
                            k for k in range(m) if ech.contains(arr.covectors[k])
                        )
                    line_cache[(i, j)] = line
                for k in line:
                    if k not in current:
                        new.add(k)
        if not new:
            break
        rounds.append(tuple(sorted(new)))
        current |= new
    return tuple(sorted(current)), tuple(rounds)


def is_lc_basis(arr: Arrangement, seed: Iterable[int]) -> bool:
    """A line-closure basis: rank-many independent hyperplanes whose line
    closure is the whole arrangement."""
    seed = tuple(sorted(set(seed)))
    r = arr.rank
    if len(seed) != r:
        return False
    if rank_of([arr.covectors[i] for i in seed], arr.dim) != r:
        return False
    closed, _ = line_closure(arr, seed)
    return len(closed) == len(arr)


def fundamental_circuit(
    arr: Arrangement, basis: Sequence[int], extra: int
) -> tuple[int, ...]:
    """The unique circuit inside basis + extra (extra dependent on the basis)."""
    rows = [arr.covectors[i] for i in basis] + [arr.covectors[extra]]
    k = len(rows)
    transposed = [tuple(r[t] for r in rows) for t in range(arr.dim)]
    kernel = primitive_kernel_basis(transposed, k)
    if len(kernel) != 1:
        raise ValueError("extra hyperplane is not spanned by the basis")
    (lam,) = kernel
    idx = list(basis) + [extra]
    return tuple(sorted(idx[t] for t in range(k) if lam[t] != 0))


def is_matroid_connected(arr: Arrangement, subset: Iterable[int]) -> bool:
    """Connectivity of the matroid of the chosen covectors, via the
    fundamental circuits of one basis: connected exactly when the union of
    those circuits links all elements."""
    subset = tuple(sorted(set(subset)))
    if len(subset) <= 1:
        return True
    ech = IntEchelon(arr.dim)
    basis: list[int] = []
    others: list[int] = []
    for i in subset:
        if ech.add(arr.covectors[i]):
            basis.append(i)
        else:
            others.append(i)
    if not others:
        return False  # independent with >= 2 elements: a direct sum of coloops
    parent = {i: i for i in subset}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for e in others:
        for b in fundamental_circuit(arr, basis, e):
            union(e, b)
    root = find(subset[0])
    return all(find(i) == root for i in subset)


@dataclass(frozen=True)
class GenClosure:
    """Result of a generation-closure run inside an ambient arrangement."""

    seed: tuple[int, ...]
    generated: tuple[int, ...]  # seed plus everything that entered
    rounds: tuple[tuple[int, ...], ...]  # indices entering per round
    complete: bool  # every round decided exactly (no sound-only shortcuts)


def _spans_hyperplane_exact(
    arr: Arrangement, current: Sequence[int], h: int
) -> bool:
    """Exact membership test: do the flats of the sub-lattice of the current
    hyperplanes that lie inside hyperplane h span it?"""
    uni = universe(arr.subset(current))
    ch = arr.covectors[h]
    d = arr.dim
    ech = IntEchelon(d)
    for f in range(uni.flat_count()):
        if not uni._basis[f].contains(ch):
            continue  # h is not in the span of f's normals: f is not inside H_h
        for v in uni.flat_kernel(f):
            ech.add(v)
            if ech.rank == d - 1:
                return True
    return ech.rank == d - 1


def _spans_hyperplane_pairwise(
    arr: Arrangement, current: Sequence[int], h: int
) -> bool:
    """Sound shortcut: codimension-2 intersections of current hyperplanes
    lying inside h that together span h.  A miss proves nothing."""
    ch = arr.covectors[h]
    d = arr.dim
    ech = IntEchelon(d)
    cur = list(current)
    for ai in range(len(cur)):
        ci = arr.covectors[cur[ai]]
        for bi in range(ai + 1, len(cur)):
            cj = arr.covectors[cur[bi]]
            span = IntEchelon(d)
            span.add(ci)
            span.add(cj)
            if span.rank != 2 or not span.contains(ch):
                continue
            for v in primitive_kernel_basis([ci, cj], d):
                ech.add(v)
            if ech.rank == d - 1:
                return True
    return ech.rank == d - 1


def gen_closure(
    arr: Arrangement, seed: Iterable[int], exact_current_cap: int = 18
) -> GenClosure:
    """Generation closure of a seed within the hyperplane pool of arr.

    Each round adds every pool hyperplane spanned by the current sub-lattice
    flats it contains.  Rounds whose current set has at most exact_current_cap
    hyperplanes are decided exactly via the full sub-lattice; larger rounds
    use the sound pairwise certificate and mark the run incomplete if any
    remaining hyperplane goes uncertified (never excluded unsoundly).  In
    rank <= 2 no hyperplane can ever enter (the only sub-lattice flat inside
    a new hyperplane is the centre, of codimension 2), so every seed is
    closed and projective_uniqueness_witness returns False for every
    essential rank-2 arrangement with at least rank + 1 lines.
    """
    m = len(arr)
    seed = tuple(sorted(set(seed)))
    for i in seed:
        if not 0 <= i < m:
            raise IndexError(f"hyperplane index {i} out of range")
    current = set(seed)
    rounds: list[tuple[int, ...]] = []
    complete = True
    while True:
        pool = [h for h in range(m) if h not in current]
        if not pool:
            break
        exact = len(current) <= exact_current_cap
        entered: list[int] = []
        uncertified: list[int] = []
        cur_sorted = sorted(current)
        for h in pool:
            if exact:
                ok = _spans_hyperplane_exact(arr, cur_sorted, h)
            else:
                ok = _spans_hyperplane_pairwise(arr, cur_sorted, h)
            if ok:
                entered.append(h)
            elif not exact:
                uncertified.append(h)
        if not entered:
            if uncertified:
                complete = False
            break
        rounds.append(tuple(entered))
        current |= set(entered)
    return GenClosure(seed, tuple(sorted(current)), tuple(rounds), complete)


@dataclass(frozen=True)
class UniquenessWitness:
    indices: tuple[int, ...]
    closure: GenClosure


def _natural_seed(arr: Arrangement) -> tuple[int, ...] | None:
    """The construction seed (first dim-1 coordinate kernels, the all-ones
    form, and the all-ones-but-last form) when the arrangement contains it."""
    n = arr.dim
    if n < 2:
        return None
    try:
        coords = [arr.index_of(tuple(1 if t == k else 0 for t in range(n))) for k in range(n - 1)]
        alpha = arr.index_of((1,) * n)
        beta = arr.index_of((1,) * (n - 1) + (-1,))
    except ValueError:
        return None
    seed = tuple(sorted(set(coords + [alpha, beta])))
    return seed if len(seed) == n + 1 else None


def projective_uniqueness_witness(
    arr: Arrangement, candidate_cap: int = 10**6
) -> tuple[Literal[True, False, "undecided"], UniquenessWitness | None]:
    """Search for a projective-uniqueness witness: rank+1 hyperplanes whose
    generation closure covers the whole arrangement.

    Requires an essential irreducible arrangement (the rigidity argument
    breaks on products); an arrangement too small to host rank+1 hyperplanes
    has no witness.  The natural construction seed is tried first, then
    candidates in lexicographic order up to candidate_cap; an exhausted scan
    refutes only if every candidate was decided exactly.  Subsets of
    deficient rank or with a disconnected matroid are skipped: a generating
    set of an irreducible essential arrangement has neither defect.
    """
    r = arr.rank
    m = len(arr)
    if m < r + 1:
        return False, None
    if not arr.is_essential:
        raise ValueError("witness search requires an essential arrangement")
    if not is_matroid_connected(arr, range(m)):
        raise ValueError("witness search requires an irreducible arrangement")

    def candidates():
        nat = _natural_seed(arr)
        if nat is not None:
            yield nat
        for S in itertools.combinations(range(m), r + 1):
            if S != nat:
                yield S

    tried = 0
    inconclusive = False
    for S in candidates():
        tried += 1
        if tried > candidate_cap:
            return "undecided", None
        covs = [arr.covectors[i] for i in S]
        if rank_of(covs, arr.dim) != r:
            continue
        if not is_matroid_connected(arr, S):
            continue
        gc = gen_closure(arr, S)
        if len(gc.generated) == m:
            return True, UniquenessWitness(tuple(S), gc)
        if not gc.complete:
            inconclusive = True
    if inconclusive:
        return "undecided", None
    return False, None
