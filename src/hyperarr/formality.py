"""Formality, line closure, generation closure, and projective-uniqueness
witnesses and refutations.

Relation space: the linear dependencies among the defining covectors.  An
arrangement is formal when the dependencies supported on rank-2 flats
already span the whole relation space; this is decided exactly by stacking
the relations of each line.  That test is of formality only: combinatorial
formality asks it of every arrangement with the same lattice.  Rank,
relations and matroid connectivity of any set of covectors are read from one
augmented echelon (_relations).  A line-closure basis certifies formality
combinatorially: a set of rank-many independent hyperplanes whose iterated
rank-2-flat closure recovers the whole arrangement.  The rank-2 flats (lines)
behind every query here are read off one shared lattice build,
universe(arr, up_to_rank=2).

Generation closure: starting from a seed set of hyperplanes, a hyperplane H
of the arrangement enters the next round when the flats of the intersection
lattice of the current set that lie inside H together span H.  A seed of
rank + 1 hyperplanes in general position is projectively rigid, and rigidity
propagates along generation rounds, so a connected such seed whose closure
reaches every hyperplane is a witness of projective uniqueness.  Every round
is decided exactly: H enters at once when it holds two lines of the master
lattice with two current hyperplanes each (read from the covers of H's
atom), and otherwise when the flats of the current sub-lattice inside H,
read rank by rank, span it.

Motion refutation: a hyperplane h moved to a new covector without changing
the labelled lattice, while the other hyperplanes span and have a connected
matroid, refutes projective uniqueness (verify_motion_refutation checks it
on the input's own lattice, by the modular cut of h, and gives the
argument; no lattice of the moved arrangement is built).  The moves that
keep every flat h is forced through form a space L_h read off the full
lattice; when it has dimension >= 2, a lattice-preserving move exists.  The
decision runs the natural seed, then this search, then the witness scan, and
reports "undecided" when none of them settles it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import mul
from typing import Iterable, Literal, NamedTuple, Sequence

from .arrangement import Arrangement
from .exactlinalg import IntEchelon, canonicalize, primitive_kernel_basis
from .lattice import Universe, bit_indices, mask_of, universe

# candidate seeds the projective-uniqueness witness scan tries
WITNESS_CAP = 10**6


def rank2_flats(arr: Arrangement) -> list[tuple[int, ...]]:
    """All rank-2 flats as sorted index tuples, read off the lattice build
    (ordered by their two lowest members)."""
    uni = universe(arr, up_to_rank=2)
    if len(uni.by_rank) < 3:
        return []
    return [bit_indices(uni.bits[f]) for f in uni.by_rank[2]]


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
        for lam in _relations(arr, members)[1]:
            vec = [0] * m
            for k, x in zip(members, lam):
                vec[k] = x
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
    cur = mask_of(arr.checked_indices(seed))
    uni = universe(arr, up_to_rank=2)
    lines = [uni.bits[f] for level in uni.by_rank[2:3] for f in level]  # none below rank 2
    rounds: list[tuple[int, ...]] = []
    while True:
        new = 0
        for line in lines:
            held = line & cur
            if held & (held - 1):  # at least two current hyperplanes
                new |= line & ~cur
        if not new:
            break
        rounds.append(bit_indices(new))
        cur |= new
    return bit_indices(cur), tuple(rounds)


def is_lc_basis(arr: Arrangement, seed: Iterable[int]) -> bool:
    """A line-closure basis: rank-many independent hyperplanes whose line
    closure is the whole arrangement.  An index outside 0..m-1 raises
    IndexError."""
    seed = arr.checked_indices(seed)
    r = arr.rank
    if len(seed) != r:
        return False
    if _relations(arr, seed)[0] != r:
        return False
    closed, _ = line_closure(arr, seed)
    return len(closed) == len(arr)


def _relations(arr: Arrangement, idx: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """(rank, relation rows) of the covectors of idx, from one echelon.

    Each of the k covectors enters an integer echelon on d + k columns as
    (c_i | e_i), with the unit vectors e_i in reverse order of i.  A row
    whose pivot falls in the last k columns has its first d entries zero,
    so its last k entries are a relation among the covectors; the other
    rows number the rank.  In this order the row of an element i that
    depends on the elements before it is reduced against the rank rows only,
    whose unit parts lie on the independent elements before i, and it
    pivots on e_i, where no other row has an entry.  So the relation rows
    are already the reduced form: each is supported on its own element and
    on the greedy basis, which makes its support the fundamental circuit of
    that element.  They are returned in the order of their elements.
    """
    d, k = arr.dim, len(idx)
    ech = IntEchelon(d + k)
    for pos, i in enumerate(idx):
        ech.add(arr.covectors[i] + tuple(int(t == k - 1 - pos) for t in range(k)))
    rank = bisect_left(ech.pivots, d)
    return rank, [row[d:][::-1] for row in reversed(ech.rows[rank:])]


def _rank_and_connected(arr: Arrangement, idx: Sequence[int]) -> tuple[int, bool]:
    """Rank and matroid connectivity of the covectors of idx: connected
    exactly when the fundamental circuits of one basis link all elements."""
    rank, relations = _relations(arr, idx)
    full = (1 << len(idx)) - 1
    circuits = [mask_of(t for t, x in enumerate(lam) if x) for lam in relations]
    reached = full & 1
    grew = True
    while grew:
        grew = False
        for c in circuits:
            if c & reached and c & ~reached:
                reached |= c
                grew = True
    return rank, reached == full


def is_matroid_connected(arr: Arrangement, subset: Iterable[int]) -> bool:
    """Connectivity of the matroid of the chosen covectors (a coloop among
    two or more elements disconnects it).  An index outside 0..m-1 raises
    IndexError."""
    return _rank_and_connected(arr, arr.checked_indices(subset))[1]


class GenClosure(NamedTuple):
    """Result of a generation-closure run inside an ambient arrangement."""

    seed: tuple[int, ...]
    generated: tuple[int, ...]  # seed plus everything that entered
    rounds: tuple[tuple[int, ...], ...]  # indices entering per round


def _holds_two_current_lines(master: Universe, cur: int, h: int) -> bool:
    """Does h hold two lines of the master lattice that each hold two
    hyperplanes of the mask cur?  Each such line cuts out a rank-2 flat of
    the current sub-lattice inside h, and two distinct codimension-2 flats
    inside h span it.  The lines through h are the covers of its atom, and
    the ambient pass makes the atoms in hyperplane order."""
    elements = master.node_elements(master.by_rank[1][h], cur)
    return sum(1 for _, held in elements if held & (held - 1)) >= 2


def _spans_hyperplane(sub: Universe, ch: Sequence[int]) -> bool:
    """Do the flats of the sub-lattice sub (of the current hyperplanes) that
    lie inside the hyperplane with the ambient normal ch span it?

    Every flat holds the centre Z of sub, so the flats inside the hyperplane
    span it exactly when their bases in the lattice coordinates span a space
    of dimension r - 1, r = sub.arr_rank.  When ch does not vanish on Z, no
    flat lies inside, and the empty span is the hyperplane only in dimension
    1.  Only ranks 2 to r - 1 can contribute: the ambient space is not inside
    the hyperplane, a current hyperplane is not the hyperplane, and the
    centre's basis is empty.  So sub grows one rank at a time, only as far
    as the echelon needs, and never to its top rank.
    """
    local = sub.coordinates(ch)
    if local is None:
        return sub.dim == 1
    r = sub.arr_rank
    ech = IntEchelon(r)
    for k in range(2, r):
        sub.extend(k)
        for f in sub.by_rank[k]:
            basis = sub.flat_kernel(f)
            if any(sum(map(mul, local, v)) for v in basis):
                continue  # f is not inside the hyperplane
            for v in basis:
                ech.add(v)
            if ech.rank == r - 1:
                return True
    return ech.rank == r - 1


def gen_closure(arr: Arrangement, seed: Iterable[int]) -> GenClosure:
    """Generation closure of a seed within the hyperplane pool of arr.

    Each round adds every pool hyperplane spanned by the flats of the
    current sub-lattice that it contains, decided exactly.  A hyperplane
    holding two lines of the master lattice with two current hyperplanes
    each enters at once.  This reads the master, built to rank 2 once per
    arrangement, and builds nothing, which keeps rounds over large current
    sets cheap: without it, the second round of H_6, which adds one
    hyperplane, would build its 37-hyperplane sub-lattice to rank 2.
    Otherwise the sub-lattice of the current set is built on first need in
    the round and grown rank by rank while the hyperplane is undecided.  In
    rank <= 2 no hyperplane can ever enter (the only sub-lattice flat inside
    a new hyperplane is the centre, of codimension 2), so every seed is
    closed and no essential rank-2 arrangement of four or more lines has a
    witness; projective_uniqueness_witness refutes each of them by moving
    one line instead.
    """
    m = len(arr)
    seed = arr.checked_indices(seed)
    master = universe(arr, up_to_rank=2)
    current = set(seed)
    rounds: list[tuple[int, ...]] = []
    while len(current) < m:
        cur_sorted = sorted(current)
        cur = mask_of(cur_sorted)
        sub = None
        entered: list[int] = []
        for h in range(m):
            if h in current:
                continue
            if not _holds_two_current_lines(master, cur, h):
                if sub is None:
                    sub = universe(arr.subset(cur_sorted), up_to_rank=2)
                if not _spans_hyperplane(sub, arr.covectors[h]):
                    continue
            entered.append(h)
        if not entered:
            break
        rounds.append(tuple(entered))
        current.update(entered)
    return GenClosure(seed, tuple(sorted(current)), tuple(rounds))


class UniquenessWitness(NamedTuple):
    indices: tuple[int, ...]
    closure: GenClosure


class MotionRefutation(NamedTuple):
    """Hyperplane `hyperplane` moved to the canonical covector `covector`
    without changing the labelled intersection lattice."""

    hyperplane: int
    covector: tuple[int, ...]


def _rest_is_rigid(arr: Arrangement, h: int) -> bool:
    """A minus hyperplane h spans and has a connected matroid, so a linear
    map fixing each of its hyperplanes is a scalar."""
    rank, connected = _rank_and_connected(arr, [i for i in range(len(arr)) if i != h])
    return rank == arr.dim and connected


def verify_motion_refutation(arr: Arrangement, ref: MotionRefutation) -> bool:
    """Check that ref refutes the projective uniqueness of arr.

    Accepts when the new covector c' is canonical, differs from c_h and from
    every other covector, the arrangement with c' in place of c_h (same index
    order) has exactly the flats (bits sets) of arr, and A minus h spans and
    has a connected matroid.  Bad input, bools among it, gives False, never
    an exception.

    Flats.  Both arrangements are single-element extensions of A minus h,
    and such an extension is fixed by its modular cut: the flats of A minus
    h whose span holds the new covector (H. Crapo, Single-element extensions
    of matroids, J. Res. NBS 69B, 1965).  So the flats agree exactly when c'
    and c_h lie in the span of the same flats of A minus h, which
    _moves_within_lattice reads off the flat bases of the lattice of arr;
    no lattice of the moved arrangement is built.

    Soundness.  Along the line c(t) = c_h + t (c' - c_h), each membership
    event "c(t) lies in the span of the covectors of a flat" is linear in t,
    so it holds everywhere or at one point at most; as the lattice agrees at
    t = 0 and t = 1, it agrees at all but finitely many t.  A projectivity
    fixing every hyperplane of a connected spanning A minus h has each of
    their covectors as an eigenvector, with one eigenvalue along every
    circuit and so one overall: it is a scalar, and it cannot carry c(t) to
    c(s) for s != t.  Allowing the finitely many lattice automorphisms as
    relabellings, each realization is equivalent to finitely many others, so
    these realizations fall into infinitely many projective classes.
    """
    try:
        h, c = ref.hyperplane, tuple(ref.covector)
    except (AttributeError, TypeError):
        return False
    d, m = arr.dim, len(arr)
    if not (type(h) is int and 0 <= h < m):
        return False
    if len(c) != d or not all(type(x) is int for x in c) or not any(c):
        return False
    if c != canonicalize(c):
        return False
    return _rest_is_rigid(arr, h) and _moves_within_lattice(arr, h, c)


def _moves_within_lattice(arr: Arrangement, h: int, c: tuple[int, ...]) -> bool:
    """The canonical non-zero covector c is new to arr, and putting it in
    place of c_h leaves the flats (bits sets) unchanged.

    Read off the lattice of arr by the modular cut of h: the flats of A minus
    h whose span holds c_h.  A flat X without h has c_h outside its span, so
    c must stay outside; a flat X holding h with X minus h not a flat has
    c_h in the span of X minus h, so c must lie in the span of X; when X
    minus h is a flat, that flat is checked by itself.  Every flat of A minus
    h is met once this way, so the two extensions of A minus h share their
    modular cut, and hence their flats.  arr must be essential, as after
    _rest_is_rigid, so that the lattice coordinates are the ambient ones.
    """
    if c in arr.covectors:
        return False  # unmoved, or onto another hyperplane
    uni = universe(arr)
    bits, parents = uni.bits, uni.parents
    hb = 1 << h
    for f in range(1, len(bits)):  # flat 0 is the ambient space, and c is not zero
        bf = bits[f]
        if bf & hb and any(bits[p] == bf ^ hb for p in parents[f]):
            continue  # X minus h is a flat exactly when X covers it
        inside = not any(sum(map(mul, c, k)) for k in uni.flat_kernel(f))
        if inside != bool(bf & hb):
            return False
    return True


def _motion_search(arr: Arrangement) -> MotionRefutation | None:
    """A lattice-preserving move of one hyperplane with a rigid rest, or None.

    For a flat X holding h whose other hyperplanes already cut it out (X
    minus h is not a flat), every realization with the same lattice puts h
    through X.  L_h, the covectors vanishing on all such X, holds c_h; when
    it has dimension >= 2, c_h + t v for v in L_h not parallel to c_h keeps
    each of them.  For S in A minus h, c_h lies in the span of S exactly when
    h holds X = cl(S), and then X minus h is not a flat, so L_h keeps it
    there; otherwise c_h + t v enters that span only at the one t, if any,
    where c_h . k + t v . k = 0 for every k spanning X.  So the least t >= 1
    that no flat outside h rules out keeps the lattice, and one check of it
    suffices; the rest is checked once per h, so the result passes
    verify_motion_refutation.  Everything, that move check included, is read
    off the full lattice of arr: the search builds no other lattice.  arr
    must be essential, as projective_uniqueness_witness ensures, so that the
    lattice coordinates are the ambient ones.
    """
    uni = universe(arr)
    d = arr.dim
    spans = [IntEchelon(d) for _ in range(len(arr))]
    for f in range(1, uni.flat_count()):
        bf = uni.bits[f]
        drops = {bf ^ uni.bits[p] for p in uni.parents[f]}  # X minus h is a flat when X covers it
        for h in bit_indices(bf):
            ech = spans[h]
            if ech.rank < d - 1 and 1 << h not in drops:
                for k in uni.flat_kernel(f):
                    ech.add(k)
    for h, ech in enumerate(spans):
        if ech.rank == d - 1 or not _rest_is_rigid(arr, h):
            continue  # dim L_h = 1: h cannot move without changing the lattice
        ch = arr.covectors[h]
        v = next(k for k in primitive_kernel_basis(ech.rows, d) if k != ch)
        bad = set()
        for f, bf in enumerate(uni.bits):
            if bf >> h & 1:
                continue
            dots = [(sum(map(mul, ch, k)), sum(map(mul, v, k))) for k in uni.flat_kernel(f)]
            a, b = next((p for p in dots if p[1]), (1, 0))
            if b and not a % b and all(x * b == y * a for x, y in dots):
                bad.add(-a // b)
        t = min(set(range(1, len(bad) + 2)) - bad)
        c = canonicalize([a + t * b for a, b in zip(ch, v)])
        if _moves_within_lattice(arr, h, c):
            return MotionRefutation(h, c)
        raise AssertionError(f"no lattice-preserving motion of hyperplane {h}")
    return None


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


def _seed_witness(arr: Arrangement, seed: tuple[int, ...]) -> UniquenessWitness | None:
    """The witness of a seed of full rank and connected matroid whose
    generation closure covers the (essential) arrangement, or None."""
    rank, connected = _rank_and_connected(arr, seed)
    if rank != arr.dim or not connected:
        return None
    gc = gen_closure(arr, seed)
    return UniquenessWitness(seed, gc) if len(gc.generated) == len(arr) else None


def projective_uniqueness_witness(
    arr: Arrangement,
) -> tuple[Literal[True, False, "undecided"], UniquenessWitness | MotionRefutation | None]:
    """Decide projective uniqueness with a checkable object.

    True comes with a UniquenessWitness: rank+1 hyperplanes whose generation
    closure covers the whole arrangement.  False comes with a
    MotionRefutation that verify_motion_refutation accepts, or with None when
    the arrangement is too small to host rank+1 hyperplanes.

    Requires an essential irreducible arrangement (the rigidity argument
    breaks on products).  The natural construction seed is tried first, then
    the one-hyperplane motion search, then the other candidates in
    lexicographic order, at most WITNESS_CAP candidates in all.  A hit cap
    or an exhausted scan gives "undecided".  Subsets of deficient rank or
    with a disconnected matroid are skipped: a generating set of an
    irreducible essential arrangement has neither defect.
    """
    r = arr.rank
    m = len(arr)
    if m < r + 1:
        return False, None
    if not arr.is_essential:
        raise ValueError("witness search requires an essential arrangement")
    if not is_matroid_connected(arr, range(m)):
        raise ValueError("witness search requires an irreducible arrangement")

    nat = _natural_seed(arr)
    if nat is not None:
        wit = _seed_witness(arr, nat)
        if wit is not None:
            return True, wit
    ref = _motion_search(arr)
    if ref is not None:
        return False, ref
    tried = int(nat is not None)
    for S in itertools.combinations(range(m), r + 1):
        if S == nat:
            continue
        tried += 1
        if tried > WITNESS_CAP:
            return "undecided", None
        wit = _seed_witness(arr, S)
        if wit is not None:
            return True, wit
    return "undecided", None
