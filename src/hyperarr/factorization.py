"""Nice partitions and (inductively) factored arrangements.

A partition of the hyperplanes is independent when every transversal (one
hyperplane per block) has full rank s = number of blocks, and nice when in
addition the partition induced on every localization A_X (X above the ambient
space) has a singleton block.  A factored arrangement forces the Poincare
polynomial to split as prod (1 + |block| t), so the block-size multiset is
read off the Poincare polynomial: if it does not split over the positive
integers, no nice partition exists; if it does, the sizes are forced.  The
search enumerates assignments with those sizes, pruning with the rank-2
consequence of niceness (every rank-2 flat meets exactly two blocks, one of
them in a single hyperplane).

Inductive factoredness follows the recursive class of pairs (A, pi): the pair
is in the class when A is empty, or some hyperplane H0 in a distinguished
block pi_1 makes the trace map A \\ pi_1 -> A^{H0} a bijection with both
induced pairs (A', pi') and (A'', pi'') in the class.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Literal

from .arrangement import Arrangement, hyperplane_subspace, restrict_with_traces
from .exactlinalg import rank_of
from .lattice import Universe, universe
from .polynomials import monic_linear_roots

Partition = tuple[tuple[int, ...], ...]


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def poincare_block_sizes(arr: Arrangement) -> tuple[int, ...] | None:
    """Block sizes forced on any factorization, or None when none can exist.

    pi(A,t) = prod (1 + b_i t) over positive integers b_i is necessary for a
    nice partition; the multiset {b_i} (the would-be block sizes) is unique.
    """
    uni = universe(arr)
    chi = uni.chi()
    r = arr.rank
    # pi_k = (-1)^k * chi coefficient at t^(dim - k)
    pi = [(-1) ** k * (chi[arr.dim - k] if arr.dim - k < len(chi) else 0) for k in range(r + 1)]
    # roots of q(t) = prod (t - b_i) = sum_j (-1)^(r-j) pi_(r-j) t^j
    q = tuple((-1) ** (r - j) * pi[r - j] for j in range(r + 1))
    roots = monic_linear_roots(q)
    if roots is None or len(roots) != r or any(b < 1 for b in roots):
        return None
    return roots


def is_independent_partition(arr: Arrangement, blocks: Partition, transversal_cap: int = 10**6) -> bool:
    """Every transversal of the blocks has rank equal to the number of blocks."""
    s = len(blocks)
    total = math.prod(len(b) for b in blocks)
    if total > transversal_cap:
        raise RuntimeError(f"{total} transversals exceed cap {transversal_cap}")
    import itertools

    for pick in itertools.product(*blocks):
        if rank_of([arr.covectors[i] for i in pick], arr.dim) != s:
            return False
    return True


def is_nice(arr: Arrangement, blocks: Iterable[Iterable[int]]) -> bool:
    """Verify the definition of a nice partition directly (uncapped search-free).

    Checks: blocks partition the index set; the partition is independent; and
    the induced partition on every localization at a flat above the ambient
    space has a singleton block.
    """
    return _is_nice(arr, canonical_partition(blocks), universe)


def _is_nice(arr: Arrangement, blocks: Partition, lattice: Callable[[Arrangement], Universe]) -> bool:
    """is_nice, reading the flats from lattice(arr) once the cheap checks pass."""
    m = len(arr)
    flat_elems = [i for b in blocks for i in b]
    if sorted(flat_elems) != list(range(m)) or any(not b for b in blocks):
        return False
    if not is_independent_partition(arr, blocks):
        return False
    uni = lattice(arr)
    masks = [sum(1 << i for i in b) for b in blocks]
    for f in range(1, uni.flat_count()):
        bits = uni.bits[f]
        saw_singleton = False
        for bm in masks:
            c = (bits & bm).bit_count()
            if c == 1:
                saw_singleton = True
                break
        if not saw_singleton:
            return False
    return True


def _rank2_lines(arr: Arrangement) -> list[tuple[int, ...]]:
    uni = universe(arr, up_to_rank=2)
    if len(uni.by_rank) < 3:
        return []
    from .lattice import bit_indices

    return [bit_indices(uni.bits[f]) for f in uni.by_rank[2]]


def find_nice_partition(
    arr: Arrangement, search_cap: int = 16, find_all: bool = False
) -> tuple[Literal[True, False, "undecided"], list[Partition]]:
    """Search for nice partitions.

    Returns (status, partitions): status False means provably none exists
    (non-splitting Poincare polynomial, or exhausted forced-size search);
    "undecided" means the instance exceeded search_cap hyperplanes.  With
    find_all the list carries every nice partition, else at most one.
    """
    m = len(arr)
    if m == 0:
        return True, [()]
    sizes = poincare_block_sizes(arr)
    if sizes is None:
        return False, []
    if m > search_cap:
        return "undecided", []
    lines = _rank2_lines(arr)
    elem_lines: list[list[int]] = [[] for _ in range(m)]
    for li, line in enumerate(lines):
        for i in line:
            elem_lines[i].append(li)
    found: list[Partition] = []
    assign = [-1] * m
    blocks: list[list[int]] = []
    caps: list[int] = []
    remaining = list(sizes)

    def line_ok(i: int, b: int) -> bool:
        for li in elem_lines[i]:
            line = lines[li]
            used: dict[int, int] = {b: 1}
            unassigned = 0
            for j in line:
                if j == i:
                    continue
                bj = assign[j]
                if bj == -1:
                    unassigned += 1
                else:
                    used[bj] = used.get(bj, 0) + 1
            if len(used) > 2:
                return False
            if unassigned == 0:
                if len(used) != 2 or min(used.values()) != 1:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == m:
            p = canonical_partition(blocks)
            if is_nice(arr, p):
                found.append(p)
                return not find_all
            return False
        for b in range(len(blocks)):
            if len(blocks[b]) < caps[b] and line_ok(i, b):
                blocks[b].append(i)
                assign[i] = b
                if backtrack(i + 1):
                    return True
                blocks[b].pop()
                assign[i] = -1
        opened: set[int] = set()
        for si, size in enumerate(remaining):
            if size in opened:
                continue
            opened.add(size)
            if not line_ok(i, len(blocks)):
                break  # independent of size; no new block can host i
            blocks.append([i])
            caps.append(size)
            assign[i] = len(blocks) - 1
            rem = remaining.pop(si)
            if backtrack(i + 1):
                return True
            remaining.insert(si, rem)
            blocks.pop()
            caps.pop()
            assign[i] = -1
        return False

    backtrack(0)
    if found:
        return True, found
    return False, []


def is_inductively_factored(
    arr: Arrangement, search_cap: int = 16
) -> tuple[Literal[True, False, "undecided"], Partition | None]:
    """Decide inductive factoredness by searching over nice partitions.

    Sound and complete within the search cap: the block sizes of any nice
    partition are forced by the Poincare polynomial, so a completed search
    with no witness refutes.  Above the cap the status is "undecided".
    """
    status, parts = find_nice_partition(arr, search_cap=search_cap, find_all=True)
    if status == "undecided":
        return "undecided", None
    if status is False:
        return False, None
    memo: dict = {}
    # the sub-arrangement lattices live for this call only, not in the cache
    lattices = {arr: universe(arr)}

    def lattice(a: Arrangement) -> Universe:
        uni = lattices.get(a)
        if uni is None:
            uni = lattices[a] = Universe(a)
        return uni

    for p in parts:
        if _ifac_pair(arr, p, memo, lattice):
            return True, p
    return False, None


def _ifac_pair(
    arr: Arrangement, blocks: Partition, memo: dict, lattice: Callable[[Arrangement], Universe]
) -> bool:
    if len(arr) == 0:
        return True
    key = (arr.covectors, blocks)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = False  # cycle-safe default; overwritten on success
    if not _is_nice(arr, blocks, lattice):
        return False
    if len(arr) == 1:
        # single hyperplane: deletion is empty, restriction is the empty
        # arrangement inside the hyperplane itself
        memo[key] = True
        return True
    for bi, block in enumerate(blocks):
        other = [i for b2i, b2 in enumerate(blocks) if b2i != bi for i in b2]
        for h0 in block:
            # the restriction A^{H0} and the trace map H |-> H ^ H0 into it
            restricted, tmap = restrict_with_traces(
                arr, hyperplane_subspace(arr.covectors[h0], arr.dim)
            )
            images = [tmap[i] for i in other if i in tmap]
            if len(images) != len(other) or len(set(images)) != len(other):
                continue
            if len(restricted) != len(other):
                continue
            deleted = arr.delete(h0)
            dblocks = []
            for b2i, b2 in enumerate(blocks):
                nb = [i if i < h0 else i - 1 for i in b2 if i != h0]
                if nb:
                    dblocks.append(nb)
            rblocks = [
                [tmap[i] for i in b2] for b2i, b2 in enumerate(blocks) if b2i != bi
            ]
            if _ifac_pair(deleted, canonical_partition(dblocks), memo, lattice) and _ifac_pair(
                restricted, canonical_partition(rblocks), memo, lattice
            ):
                memo[key] = True
                return True
    return False
