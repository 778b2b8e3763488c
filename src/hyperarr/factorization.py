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
induced pairs (A', pi') and (A'', pi'') in the class (M. Jambu, L. Paris,
Combinatorics of inductively factored arrangements, European J. Combin. 16
(1995); H. Terao, Factorizations of the Orlik-Solomon algebras, Adv. Math.
91 (1992)).  The pairs are (flat, hyperplane-mask) nodes of the master
lattice, as in the inductive-freeness search: the deletion shrinks the mask,
the restriction moves to the element's flat, and a block is the mask of one
representative hyperplane per element, the lowest bit of its preimage.  No
sub-arrangement is rebuilt and no lattice other than the master's is read.

Independence, a rank condition, is read off the lattice too: the blocks are
placed in order from the flat x of the node, each hyperplane outside the
join f of those before it, and the join with it is the cover of f holding
it.  A flat reached from x by k blocks has rank rank(x) + k, and what is
left to check depends on it alone, so it is walked once however many
transversals lead to it.
"""

from __future__ import annotations

from typing import Iterable, Literal

from .arrangement import Arrangement
from .formality import rank2_flats
from .freeness import chi_integer_roots
from .lattice import Universe, bit_indices, mask_of, universe

Partition = tuple[tuple[int, ...], ...]

# hyperplanes of the largest input the nice-partition search takes on
PARTITION_CAP = 16


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def poincare_block_sizes(arr: Arrangement) -> tuple[int, ...] | None:
    """Block sizes forced on any factorization, or None when none can exist.

    pi(A,t) = prod (1 + b_i t) over positive integers b_i is necessary for a
    nice partition; the multiset {b_i} (the would-be block sizes) is unique.
    It holds exactly when chi(t) = t^(dim - rank) prod (t - b_i), so the b_i
    are the chi roots after the dim - rank zeros (the others are positive).
    """
    roots = chi_integer_roots(arr)
    return None if roots is None else roots[arr.dim - arr.rank :]


def is_independent_partition(arr: Arrangement, blocks: Partition) -> bool:
    """Every transversal of the blocks has rank equal to the number of blocks.
    An index outside 0..m-1 raises IndexError."""
    arr.checked_indices(i for b in blocks for i in b)
    masks = [mask_of(b) for b in blocks]
    if not masks or not all(masks):
        return True  # no block: the empty transversal has rank 0; an empty block: none
    return _independent_above(universe(arr, up_to_rank=len(masks) - 1), 0, masks)


def _independent_above(uni: Universe, x: int, blocks: list[int]) -> bool:
    """Whether every transversal of the nonempty hyperplane masks blocks
    raises the rank above the flat x by one per block, by the walk up the
    covers of the module docstring, which reads the children rows of the
    ranks below rank[x] + len(blocks) - 1."""
    bits, rank = uni.bits, uni.rank
    kids, kid_start = uni.children.values, uni.children.start
    last = rank[x] + len(blocks) - 1
    seen = {x}
    stack = [x]
    while stack:
        f = stack.pop()
        block = blocks[rank[f] - rank[x]]
        if bits[f] & block:
            return False  # a hyperplane of the block lies in the join of the ones before it
        if rank[f] < last:
            for g in kids[kid_start[f] : kid_start[f + 1]]:
                if bits[g] & block and g not in seen:
                    seen.add(g)
                    stack.append(g)
    return True


def is_nice(arr: Arrangement, blocks: Iterable[Iterable[int]]) -> bool:
    """Verify the definition of a nice partition directly (uncapped search-free).

    Checks: blocks partition the index set; the partition is independent; and
    the induced partition on every localization at a flat above the ambient
    space has a singleton block.
    """
    blocks = canonical_partition(blocks)
    if sorted(i for b in blocks for i in b) != list(range(len(arr))) or any(not b for b in blocks):
        return False
    uni = universe(arr)
    return _is_nice_node(uni, 0, uni._full_mask, [mask_of(b) for b in blocks])


def _is_nice_node(uni: Universe, x: int, mask: int, blocks: list[int]) -> bool:
    """is_nice for the node (x, mask), whose blocks hold one representative
    hyperplane per element.

    An element lies below a flat Y of the node exactly when bits[Y] holds its
    representative, and its rank in the node is that of the cover of x
    holding the representative, so independence is the walk up the covers
    from x (_independent_above).
    """
    if not _independent_above(uni, x, blocks):
        return False
    bits = uni.bits
    order = uni.node_walk(x, mask)[0]
    return all(any((bits[f] & b).bit_count() == 1 for b in blocks) for f in order[1:])


def find_nice_partition(
    arr: Arrangement, find_all: bool = False
) -> tuple[Literal[True, False, "undecided"], list[Partition]]:
    """Search for nice partitions.

    Returns (status, partitions): status False means provably none exists
    (non-splitting Poincare polynomial, or exhausted forced-size search);
    "undecided" means the instance exceeded PARTITION_CAP hyperplanes.  With
    find_all the list carries every nice partition, else at most one.
    """
    m = len(arr)
    if m == 0:
        return True, [()]
    sizes = poincare_block_sizes(arr)
    if sizes is None:
        return False, []
    if m > PARTITION_CAP:
        return "undecided", []
    lines = rank2_flats(arr)
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


def is_inductively_factored(arr: Arrangement) -> tuple[Literal[True, False, "undecided"], Partition | None]:
    """Decide inductive factoredness by searching over nice partitions.

    Sound and complete within PARTITION_CAP: the block sizes of any nice
    partition are forced by the Poincare polynomial, so a completed search
    with no witness refutes.  Above the cap the status is "undecided".
    """
    status, parts = find_nice_partition(arr, find_all=True)
    if status == "undecided":
        return "undecided", None
    if status is False:
        return False, None
    uni = universe(arr)
    memo: dict = {}
    for p in parts:
        if _ifac_node(uni, 0, uni._full_mask, [mask_of(b) for b in p], memo):
            return True, p
    return False, None


def _ifac_node(uni: Universe, x: int, mask: int, blocks: list[int], memo: dict) -> bool:
    """Whether the pair on the node (x, mask) is inductively factored: some
    representative h0 of an element e0 has a bijective trace map and both
    induced pairs are.  Each block is the mask of its elements'
    representatives, the lowest bit of each preimage."""
    x, mask = key = uni.node_key(x, mask)
    elements = uni.node_elements(x, mask)
    if not elements:
        return True
    memo_key = (key, tuple(sorted(blocks)))
    if memo_key in memo:
        return memo[memo_key]
    memo[memo_key] = False  # overwritten on success
    if not _is_nice_node(uni, x, mask, blocks):
        return False
    element_of = {pre & -pre: (e, pre) for e, pre in elements}
    for bi, block in enumerate(blocks):
        others = blocks[:bi] + blocks[bi + 1 :]
        for i in bit_indices(block):
            h0 = 1 << i
            e0, pre0 = element_of[h0]
            restricted = _restricted_blocks(uni, e0, mask, others)
            if restricted is None:
                continue
            deleted = [b & ~h0 for b in blocks if b != h0]
            if _ifac_node(uni, x, mask & ~pre0, deleted, memo) and _ifac_node(
                uni, e0, mask, restricted, memo
            ):
                memo[memo_key] = True
                return True
    return False


def _restricted_blocks(uni: Universe, e0: int, mask: int, others: list[int]) -> list[int] | None:
    """The blocks carried to the restriction (e0, mask), or None when the
    trace map of their representatives is not a bijection.

    Every representative outside e0 lies in exactly one element of the
    restriction, so the map is a bijection exactly when each element holds
    exactly one of them.
    """
    reps = sum(others)
    image = uni.node_elements(e0, mask)
    if any((pre & reps).bit_count() != 1 for _, pre in image):
        return None
    return [sum(pre & -pre for _, pre in image if pre & b) for b in others]
