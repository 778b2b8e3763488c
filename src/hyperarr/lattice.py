"""Intersection lattices of central arrangements, exactly.

The engine builds the lattice rank by rank: a flat is identified by the bitset
of hyperplane indices containing it (the closed sets of the matroid of
normals), and each flat records the flats covering it in children[f] and the
flats it covers in parents[f].  No cover table is kept: the cover of f that
holds a hyperplane h outside f is the child whose bits hold h.  Flat ids are
given in rank order, so each level of by_rank is a range of ids, and both
cover tables are Rows: one int array of all rows end to end and one of row
offsets, so a cover edge costs 4 bytes and no list object.  A flat's
children row is written when the build reaches it, and the parent rows of a
new rank are collected per flat and appended at the end of that rank's pass,
so rows stay in id order and a partial build grows in place.  No index from
bits to ids is kept: a pass meets only covers of the rank it makes, so it
finds them by their bits in a dict of its own, dropped with the pass.  The
readers need none either: the ambient pass makes the atoms in hyperplane
order, so the atom of h is by_rank[1][h], and X minus h is a flat exactly
when X covers it, so it is read off parents[X].  Two matroid facts make
subarrangements and restrictions cheap on top of one master lattice:

  * for B a subset of A and S closed in B, cl_B(S + h) = cl_A(S + h), so the
    lattice of any subarrangement is walked over the master's covers;
  * the lattice of the restriction A^X is the interval above X.

The build reads the second fact backwards: the covers of a flat X are the
hyperplanes of A^X.  The lattice of A is that of its essentialization, so
the engine works in the coordinates of the span of the normals: one echelon
of the covectors fixes them, and a normal's coordinates are its entries in
the pivot columns (essentialize reads the same echelon).  Vectors there have
rank A entries, however large the ambient dimension.  The trace of a
hyperplane h not in a flat X is its linear form read on a basis of X, made
primitive with its first nonzero entry positive; equal traces are the same
hyperplane of A^X.  Not every normal needs a trace (matroid closure,
J. Oxley, Matroid Theory, section 1.4).  Let P be the first parent of X, the
flat whose pass created it.  For a cover g != X of P and h in g - P,
cl(X + h) = cl(X + cl(P + h)) = cl(X + g), and g meets X in P, so the blocks
g - P partition the hyperplanes outside X and the covers of X coarsen those
of P.  So the pass of X reads one trace per block and groups the blocks of
equal canonical trace into its covers (cover bits = bits of X | group); the
ambient flat has one block per hyperplane, whose trace on the identity is
its normal.  Blocks come in the order of their lowest hyperplane, as rows
do, so the covers come out in that order too.  So a pass is of one of three
kinds: the ambient pass groups the normals; each pass below it groups the
key ids of the blocks of its flats, read as minors or off a table (below);
and the centre pass, from the flats of dimension one, reads nothing, as a
line's only cover is the centre, and writes its rows whole.

No normal is read below the ambient flat, and no basis at all.  With t the
trace of X on P (its key) and q the first nonzero index of t, X has the
basis t_q*k_j - t_j*k_q (j != q, k_j where t_j = 0) for the basis k of P, so
the trace of a cover on X is the list of 2x2 minors t_q*s_j - t_j*s_q of its
canonical trace s on P (s_j where t_j = 0), in Python integers (_minors).
Both s and t are canonical traces of the last pass, so the key of a cover
on X depends only on the pair of their ids among its K distinct ones, and
symmetric inputs repeat the pairs: the pass of H_6 to rank 4 reads 56,320
blocks in 1,397 pairs of K = 40 ids.  A pass that reads B > K^2 blocks keeps
the new key id of each pair in a K x K table, row t and column s, filled
with one minor the first time a pair is met and read for every later block;
it lives for that one pass, and B bounds its size (_reads_table).  The own
block of a flat of key t is at row t, column t, marked -1, so the pass
groups the ids it reads and drops that group.  Other passes, those of
inputs with few symmetries among them, read the minors of every block, with
the cover traces of P transposed into columns once per P, and look each
trace up in a dict of the traces met.
The lattice keeps the key id of every flat and the short list of distinct
canonical traces of each pass, and between passes the key ids of the last
pass's children rows and the count of blocks the next pass reads.
flat_kernel returns the very bases the build read the traces in, V_X = the
minors of V_P by the key of X: the first read of X derives V_X by the same
_minors from V_P, read the same way, and keeps it.  They are not primitive,
and only the flats read and their first-parent ancestors keep one.

Consequently the characteristic polynomial of any (restriction of a)
subarrangement is an interval Moebius computation over one shared structure,
keyed by (flat, hyperplane mask).  The interval walk goes up the stored
covers, keeping a cover g of f when g holds a node hyperplane that f does
not.  Moebius values come from Weisner's theorem: for Y above x and an atom
a of [x, Y], mu(x, Y) = -sum mu(x, P) over the flats P covered by Y that do
not lie above a.  This reads only the local cover lists of the interval
walk, so it costs O(cover edges) time and O(flats) memory.  The walk of the
whole lattice, node (0, all hyperplanes), would find the flats in the order
the build made them, each with its stored parents; so it is not walked: the
stored rows are its local parent lists, and chi, IntersectionLattice.flats()
and simplicial_defect read them in place.

Supersolvability needs no joins.  A coatom of a simple geometric lattice is
modular exactly when it meets every rank-2 flat (J. Oxley, Matroid Theory,
section 6.9), and a flat modular in [0, Y] for a modular Y is modular in the
whole lattice (R. P. Stanley, Modular elements of geometric lattices,
Algebra Universalis 1 (1971)).  So a chain of modular flats is found from
the centre down, one modular coatom of the current interval at a time, with
bit tests against the stored lines.  The first modular coatom found is kept:
the meet of two modular flats is modular (T. Brylawski, Trans. AMS 203
(1975)), so if a chain exists, one runs through it.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arrangement import Arrangement, essentialize, restrict_to_subspace
from .exactlinalg import SubspaceBasis, primitive, primitive_kernel_basis
from .polynomials import IntPoly, add, evaluate, monic_linear_roots, trim


class Flat(NamedTuple):
    """A flat of the intersection lattice.

    contains: indices of the hyperplanes whose covector vanishes on the flat.
    rank: codimension of the flat; dim: its dimension as a subspace.
    """

    index: int
    rank: int
    contains: tuple[int, ...]
    dim: int
    mobius: int


class Rows:
    """Rows of flat ids in one int array: row f is values[start[f]:start[f + 1]].

    A new table holds one empty row, that of the ambient flat.  Reading a row
    slices it out; hot loops slice values and start directly.
    """

    __slots__ = ("values", "start")

    def __init__(self) -> None:
        self.values = array("i")
        self.start = array("i", [0, 0])

    def __getitem__(self, f: int) -> array:
        return self.values[self.start[f] : self.start[f + 1]]

    def __iter__(self) -> Iterator[array]:
        values, start = self.values, self.start
        return (values[a:b] for a, b in zip(start, islice(start, 1, None)))


class Universe:
    """Master lattice data for one arrangement (possibly built partially);
    it holds no reference to the arrangement, so universe() can drop it.

    The normals and the flat bases live in the coordinates of the span of
    the normals, which are those of essentialize(arr): vectors of length
    arr_rank.  dim stays the ambient dimension, so chi and the flat
    dimensions are those of the arrangement itself; coordinates() carries an
    ambient covector over.  The build keeps the key chain (each flat's trace
    on its first parent) in place of flat bases; flat_kernel derives a
    flat's basis from it and its first parent's when it is first read.
    by_rank[k] is the range of ids of the rank-k flats; no global index from
    bits to ids is kept, only one per pass, for the flats it makes.
    """

    def __init__(self, arr: Arrangement, up_to_rank: int | None = None):
        self.arr_rank = arr.rank
        self.m = len(arr)
        self.dim = arr.dim
        self._span = arr._span
        self.normals = list(essentialize(arr).covectors)
        self.bits: list[int] = [0]
        self.rank: list[int] = [0]
        self.parents = Rows()
        self.children = Rows()
        self.by_rank: list[range] = [range(1)]
        self._full_mask = (1 << self.m) - 1
        self._node_chi: dict[tuple[int, int], IntPoly] = {}
        self._node_roots: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self.built_to = 0
        self.traces = 0  # traces the build grouped, one per block read
        # the key chain: the trace of each flat on its first parent, as an id
        # into the distinct canonical traces of that parent's pass
        self._key = array("i", [0])
        self._keys: list[list[tuple[int, ...]]] = []
        # what the next pass reads of the last one: the key ids of its children rows
        self._frontier: array | None = array("i")
        self._reads = 0  # and the number of blocks it reads
        r = self.arr_rank
        # each flat's basis, derived when first read
        self._basis: list[tuple[tuple[int, ...], ...] | None] = [
            tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        ]
        self.extend(up_to_rank)

    def extend(self, up_to_rank: int | None = None) -> None:
        """Build the ranks up to up_to_rank (all by default) not built yet."""
        limit = self.arr_rank if up_to_rank is None else min(up_to_rank, self.arr_rank)
        if limit > self.built_to:
            self._build(limit)
        self.is_full = self.built_to >= self.arr_rank
        if self.is_full:
            self._frontier = None  # no pass is left to read it

    # -- construction ------------------------------------------------------

    def _build(self, limit: int) -> None:
        kid_start = self.children.start
        # the top built rank has empty children rows until this pass fills them
        del kid_start[self.by_rank[self.built_to].start + 1 :]
        while self.built_to < limit:
            first = len(self.bits)
            # the ambient pass and the minors or table passes read traces; the
            # centre pass, from the lines, reads none
            if self.built_to == self.arr_rank - 1:
                self._centre_pass()
            else:
                self._cover_pass()
            self.built_to += 1
            self.rank.extend([self.built_to] * (len(self.bits) - first))
            self.by_rank.append(range(first, len(self.bits)))
        kid_start.extend([len(self.children.values)] * (len(self.bits) + 1 - len(kid_start)))  # the new top rank
        if not self.by_rank[-1]:
            self.by_rank.pop()

    def _centre_pass(self) -> None:
        """The pass from the lines, the flats of dimension one, to the centre:
        a line meets every hyperplane not holding it in the centre, so the
        centre is its only cover, and no trace is read.  The centre holds
        every hyperplane and has key (1,) on each line; its parent row is the
        line level in id order."""
        lines = self.by_rank[self.built_to]
        centre = len(self.bits)
        self.bits.append(self._full_mask)
        self._key.append(0)
        self._keys.append([(1,)])
        kids, kid_start = self.children.values, self.children.start
        end = len(kids)
        kids.fromlist([centre] * len(lines))
        kid_start.fromlist(list(range(end + 1, len(kids) + 1)))
        ups = self.parents.values
        ups.fromlist(list(lines))
        self.parents.start.append(len(ups))

    def _cover_pass(self) -> None:
        """A pass that reads traces, to a rank below the centre: the ambient
        pass, or one that reads the traces of the blocks of its flats as the
        minors of the last pass's cover traces or off a table of key-id pairs
        (_reads_table).  It writes the children rows of the top built rank
        and the parent rows of the new one."""
        bits, key_of, level = self.bits, self._key, self.by_rank[self.built_to]
        kids, kid_start = self.children.values, self.children.start
        ups, up_start = self.parents.values, self.parents.start
        first = len(bits)
        made: dict[int, int] = {}  # bits -> id of the flats this pass makes
        get = made.get
        new_ups: list[list[int]] = []  # parent rows of the new flats
        keys: list[tuple[int, ...]] = []  # the distinct canonical traces of this pass
        key_id: dict[tuple[int, ...], int] = {}  # raw and canonical traces to ids
        lookup = key_id.get
        cover_keys = array("i")
        reads = traces = 0  # the blocks the next pass reads, and those this one reads
        table: list[list[int | None]] | None = None
        if self.built_to:
            prev_keys, prev_covers = self._keys[-1], self._frontier
            prev_base = kid_start[self.by_rank[self.built_to - 1][0]]
            width = len(prev_keys)
            if _reads_table(width, self._reads):
                # row t holds the key id of the trace on f of the cover of key
                # s on P, at s, for the key t of f; f's own block at t is -1
                table = [[None] * width for _ in range(width)]
                for t in range(width):
                    table[t][t] = -1
        parent = -1  # the flat P whose cover blocks and traces are at hand
        for f in level:
            bf = bits[f]
            if f:
                # one trace per block g - P of the covers g of f's first
                # parent P: cl(f + h) = cl(f + g) for h in g - P.  The flats
                # P created come one after another, so the blocks and the
                # cover traces are read once per P.
                p = ups[up_start[f]]
                if p != parent:
                    parent, bp = p, bits[p]
                    lo, hi = kid_start[p], kid_start[p + 1]
                    row = prev_covers[lo - prev_base : hi - prev_base]
                    blocks = [bits[g] & ~bp for g in kids[lo:hi]]
                    if table is None:
                        columns = list(zip(*[prev_keys[k] for k in row]))
                    else:  # each cover's key id on P with its block
                        keyed = list(zip(row, blocks))
                traces += len(blocks) - 1
                t = key_of[f]
            else:  # the ambient flat: one block per hyperplane, its normal its trace
                xs, blocks = self.normals, [1 << h for h in range(self.m)]
                traces += self.m
            groups: dict[int | None, int] = {}  # key id -> the union of its blocks
            if table is None:
                if f:
                    xs = zip(*_minors(columns, prev_keys[t]))
                for x, block in zip(xs, blocks):
                    if block & bf:
                        continue  # f's own block, whose trace is zero
                    k = lookup(x)
                    if k is None:  # a trace not met yet
                        # the raw trace is kept too: of the 15,626 blocks of H_6 to ranks 2-3, 399 miss
                        k = key_id[x] = _key_id(x, key_id, keys)
                    groups[k] = groups.get(k, 0) | block
            else:
                at = table[t]
                while True:
                    for s, block in keyed:
                        k = at[s]
                        groups[k] = groups.get(k, 0) | block
                    if None not in groups:
                        break
                    # pairs met first: their minors, column by column, then the row again
                    miss = [s for s in row if at[s] is None]
                    met = zip(*_minors(list(zip(*[prev_keys[s] for s in miss])), prev_keys[t]))
                    for s, trace in zip(miss, met):
                        at[s] = _key_id(trace, key_id, keys)
                    groups.clear()
                del groups[-1]  # f's own block
            n = len(groups) - 1  # a new cover reads the blocks of f's row but its own
            covers: list[int] = []  # the children row of f
            for k, group in groups.items():
                nb = bf | group
                g = get(nb)
                if g is None:
                    g = made[nb] = len(bits)
                    bits.append(nb)
                    key_of.append(k)
                    new_ups.append([])  # not [f], which a second parent grows to 8 slots, not 4
                    reads += n
                new_ups[g - first].append(f)
                covers.append(g)
            kids.fromlist(covers)  # fromlist, as extend goes item by item
            kid_start.append(len(kids))
            cover_keys.fromlist(list(groups))
        for up_row in new_ups:
            ups.fromlist(up_row)
            up_start.append(len(ups))
        self._keys.append(keys)
        self._frontier, self._reads = cover_keys, reads
        self.traces += traces

    # -- basic queries -----------------------------------------------------

    def flat_count(self) -> int:
        return len(self.bits)

    def flat_kernel(self, f: int) -> tuple[tuple[int, ...], ...]:
        """Integer vectors spanning the flat in the lattice coordinates:
        arr_rank - rank[f] vectors of length arr_rank, the basis the build
        read the traces of the flat's covers in.

        The identity at the ambient flat; below it, the basis k of the first
        parent P cut by the kernel of the flat's trace t on P (its key):
        with q the first nonzero index of t, the vector j != q is
        t_q*k_j - t_j*k_q, or k_j where t_j = 0.  It is neither primitive
        nor canonical, and its entries grow down the ranks like the traces.
        Pair it with the normals, or with an ambient covector through
        coordinates().  The first read of a flat derives its basis from its
        first parent's, read the same way, at most rank[f] calls deep, and
        keeps it; a lattice nobody asks keeps none but the identity.
        """
        bases = self._basis
        if f >= len(bases):
            bases.extend([None] * (len(self.bits) - len(bases)))
        if bases[f] is None:
            p = self.parents.values[self.parents.start[f]]
            bases[f] = tuple(map(tuple, _minors(self.flat_kernel(p), self._keys[self.rank[f] - 1][self._key[f]])))
        return bases[f]

    def coordinates(self, covector: Sequence[int]) -> tuple[int, ...] | None:
        """An ambient covector in the lattice coordinates, or None when it is
        outside the span of the normals, that is, when it does not vanish on
        the centre.  The coordinates are its entries in the pivot columns of
        the normals' echelon, which is linear on that span; an essential
        arrangement's are the ambient ones."""
        ech = self._span
        if ech is None:
            return tuple(covector)
        if not ech.contains(covector):
            return None
        return tuple([covector[p] for p in ech.pivots])

    # -- interval / submask engine ------------------------------------------

    def node_key(self, x: int, mask: int) -> tuple[int, int]:
        return (x, mask & self._full_mask & ~self.bits[x])

    def node_walk(self, x: int, mask: int) -> tuple[Sequence[int], Sequence[Sequence[int]]]:
        """Flats of the interval above x in the subarrangement given by mask.

        Returns (master flat ids in rank order, local parent lists); the
        rank of a flat g in the node is rank[g] - rank[x].  Requires a fully
        built lattice.  The whole lattice, node (0, all hyperplanes), is the
        stored structure itself: the walk would find the flats in id order,
        so local ids are master ids and the result is (range of ids,
        parents) with nothing copied.
        """
        if not self.is_full:
            raise RuntimeError("interval walk requires a fully built lattice")
        if x == 0 and mask & self._full_mask == self._full_mask:
            return range(len(self.bits)), self.parents
        bits = self.bits
        kids, kid_start = self.children.values, self.children.start
        mask &= ~bits[x]
        order = [x]
        local = {x: 0}
        parents: list[list[int]] = [[]]
        frontier = [x]
        while frontier:
            nxt: list[int] = []
            for f in frontier:
                fl = local[f]
                out = mask & ~bits[f]
                for g in kids[kid_start[f] : kid_start[f + 1]]:
                    if not bits[g] & out:
                        continue  # no node hyperplane leads from f to g
                    gl = local.get(g)
                    if gl is None:
                        gl = len(order)
                        local[g] = gl
                        order.append(g)
                        parents.append([])
                        nxt.append(g)
                    parents[gl].append(fl)
            frontier = nxt
        return order, parents

    def node_mobius(self, x: int, mask: int) -> tuple[list[int], list[int]]:
        """(master flat ids, Moebius values) for the interval/submask node.

        Weisner's theorem with the atom of the lowest hyperplane of Y in the
        node: mu(Y) = -sum of mu(P) over the covers P below Y missing it.
        """
        order, parents = self.node_walk(x, mask)
        mask &= ~self.bits[x]
        local_bits = self.bits if parents is self.parents else [self.bits[f] for f in order]
        mob = [1] * len(order)
        for i, row in enumerate(parents):
            if not row:
                continue  # x itself
            own = local_bits[i] & mask
            atom = own & -own
            acc = 0
            for p in row:
                if not local_bits[p] & atom:
                    acc += mob[p]
            mob[i] = -acc
        return order, mob

    def node_chi(self, x: int, mask: int) -> IntPoly:
        """Characteristic polynomial of the node (ambient = the flat x)."""
        key = self.node_key(x, mask)
        chi = self._node_chi.get(key)
        if chi is None:
            order, mob = self.node_mobius(key[0], key[1])
            deg = self.dim - self.rank[x]
            coeffs = [0] * (deg + 1)
            for f, mu in zip(order, mob):
                coeffs[self.dim - self.rank[f]] += mu
            chi = trim(coeffs)
            self._node_chi[key] = chi
        return chi

    def deletion_chi(self, x: int, mask: int, e: int) -> IntPoly:
        """Characteristic polynomial of the node (x, mask) with the element e
        of the node deleted, by deletion-restriction:
        chi(x, mask minus e) = chi(x, mask) + chi(e, mask).  The restriction
        interval above e is much smaller than the deletion interval."""
        key = self.node_key(x, mask & ~self.bits[e])
        chi = self._node_chi.get(key)
        if chi is None:
            chi = add(self.node_chi(x, mask), self.node_chi(e, mask))
            self._node_chi[key] = chi
        return chi

    def node_roots(self, x: int, mask: int) -> tuple[int, ...] | None:
        key = self.node_key(x, mask)
        if key not in self._node_roots:
            self._node_roots[key] = monic_linear_roots(self.node_chi(x, mask))
        return self._node_roots[key]

    def node_elements(self, x: int, mask: int) -> list[tuple[int, int]]:
        """Hyperplanes of the node: (flat id one rank above x, preimage mask)."""
        bits = self.bits
        kids, kid_start = self.children.values, self.children.start
        mask &= ~bits[x]
        out = [(g, bits[g] & mask) for g in kids[kid_start[x] : kid_start[x + 1]] if bits[g] & mask]
        out.sort()
        return out

    def chi(self) -> IntPoly:
        return self.node_chi(0, self._full_mask)


def _reads_table(keys: int, reads: int) -> bool:
    """Whether a pass reads the key id of each block off a table of key-id
    pairs: keys is the count of distinct canonical traces the last pass left
    and reads the count of blocks this pass reads, so the keys x keys table
    is kept only when it is smaller than the pass's own work."""
    return keys * keys < reads


def _key_id(trace: tuple[int, ...], key_id: dict, keys: list) -> int:
    """The key id of a trace a pass meets first (by its raw form in the
    minors pass, by its pair of key ids in the table pass): that of its
    canonical form, or the next id for a canonical form met first."""
    canon = primitive(trace)
    k = key_id.get(canon)
    if k is None:
        k = key_id[canon] = len(keys)
        keys.append(canon)
    return k


def _minors(columns: Sequence[Sequence[int]], t: tuple[int, ...]) -> list[Sequence[int]]:
    """The 2x2 minors of the rows columns[j] by the key t of a cover X of a
    flat P: with q the first nonzero index of t, row j != q becomes
    t_q*s_j - t_j*s_q, or stays s_j where t_j = 0.  On the basis of P it
    gives the basis of X (Universe.flat_kernel); on the canonical traces
    of P's covers on P, one coordinate per row, it gives their traces on X
    in that basis, which the build reads."""
    q = next(i for i, x in enumerate(t) if x)
    tq, sq = t[q], columns[q]
    return [
        [tq * a - tj * b for a, b in zip(s, sq)] if tj else s
        for j, (s, tj) in enumerate(zip(columns, t))
        if j != q
    ]


def bit_indices(mask: int) -> tuple[int, ...]:
    """The set bits of a nonnegative mask in ascending order, read from the
    top: one xor per bit, where the lowest bit needs a negation and a
    subtraction of the whole mask as well."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


_universe_cache: weakref.WeakKeyDictionary[Arrangement, Universe] = weakref.WeakKeyDictionary()


def universe(arr: Arrangement, up_to_rank: int | None = None) -> Universe:
    """Shared lattice engine per arrangement while it lives; a partial build
    is extended in place on demand, so every holder of it sees the new ranks."""
    uni = _universe_cache.get(arr)
    if uni is None:
        uni = _universe_cache[arr] = Universe(arr, up_to_rank)
    else:
        uni.extend(up_to_rank)
    return uni


class IntersectionLattice:
    """Public view of the intersection lattice of one arrangement."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self._uni = universe(arr)
        self._flats: list[Flat] | None = None

    def flats(self) -> list[Flat]:
        if self._flats is None:
            uni = self._uni
            # the whole node's Moebius values are in flat id order
            mob = uni.node_mobius(0, uni._full_mask)[1]
            self._flats = [
                Flat(
                    index=f,
                    rank=uni.rank[f],
                    contains=bit_indices(uni.bits[f]),
                    dim=uni.dim - uni.rank[f],
                    mobius=mob[f],
                )
                for f in range(uni.flat_count())
            ]
        return self._flats

    def counts_by_rank(self) -> list[int]:
        return [len(level) for level in self._uni.by_rank]

    def chi(self) -> IntPoly:
        return self._uni.chi()

    def to_json_dict(self) -> dict:
        flats = sorted(self.flats(), key=lambda fl: (fl.rank, fl.contains))
        return {
            "schema": "hyperarr/lattice-v1",
            "dim": self.arrangement.dim,
            "covectors": [list(c) for c in self.arrangement.covectors],
            "full": True,
            "flats": [
                {
                    "rank": fl.rank,
                    "contains": list(fl.contains),
                    "mobius": fl.mobius,
                    "dim": fl.dim,
                }
                for fl in flats
            ],
        }


def build_lattice(arr: Arrangement) -> IntersectionLattice:
    return IntersectionLattice(arr)


def chi(arr: Arrangement) -> IntPoly:
    """Characteristic polynomial via Moebius values of the full lattice."""
    return universe(arr).chi()


def zaslavsky_region_count(arr: Arrangement) -> int:
    """Number of chambers of a real central arrangement: (-1)^dim chi(-1)."""
    return (-1) ** arr.dim * evaluate(chi(arr), -1)


def localization(arr: Arrangement, flat: Flat) -> Arrangement:
    """The subarrangement of hyperplanes containing the flat (ambient kept)."""
    return arr.subset(flat.contains)


def restriction(arr: Arrangement, flat: Flat) -> Arrangement:
    """The restriction of arr to the flat, in canonical RREF coordinates.

    The flat as an ambient subspace is the kernel of its member covectors.
    An index in flat.contains outside 0..m-1 raises the IndexError of
    Arrangement.checked_indices; a set of hyperplanes in range that is not a
    flat of arr of its rank raises KeyError.
    """
    uni = universe(arr, up_to_rank=flat.rank)
    level = uni.by_rank[flat.rank] if 0 <= flat.rank < len(uni.by_rank) else ()
    if mask_of(arr.checked_indices(flat.contains)) not in map(uni.bits.__getitem__, level):
        raise KeyError(flat.contains)
    kernel = primitive_kernel_basis([arr.covectors[i] for i in flat.contains], arr.dim)
    return restrict_to_subspace(arr, SubspaceBasis.from_vectors(kernel, arr.dim))


# -- supersolvability ---------------------------------------------------


def is_supersolvable(arr: Arrangement) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Decide supersolvability; on success, return a maximal modular chain.

    The chain is reported as contains-index sets from the ambient space up to
    the center.  Rank <= 2 arrangements are always supersolvable.

    The search goes down from the centre.  Below a modular flat Y it takes
    the first coatom X of [0, Y] that meets every line (rank-2 flat) under Y:
    those are the modular coatoms of [0, Y], and a flat modular in [0, Y] for
    Y modular is modular in L.  No other choice of X needs trying: the meet
    of two modular flats of a geometric lattice is modular (T. Brylawski,
    Modular constructions for combinatorial geometries, Trans. AMS 203
    (1975)), so the meets of X with a modular chain of [0, Y] form a modular
    chain of [0, X] (their ranks step by at most one, as X is modular).  A
    flat of rank <= 2 ends the chain, since every flat under it is modular.
    """
    uni = universe(arr)
    bits, parents = uni.bits, uni.parents
    y = uni.by_rank[-1][0]
    chain = [y]
    lines = [bits[f] for f in uni.by_rank[2]] if len(uni.by_rank) > 2 else []
    while uni.rank[y] > 2:
        y = next((x for x in parents[y] if all(line & bits[x] for line in lines)), None)
        if y is None:
            return False, None
        chain.append(y)
        lines = [line for line in lines if not line & ~bits[y]]
    while y:
        y = parents[y][0]
        chain.append(y)
    return True, [bit_indices(bits[f]) for f in reversed(chain)]


def find_generic_rank3_localization(arr: Arrangement) -> Flat | None:
    """A rank-3 flat whose localization is generic with >= 4 hyperplanes.

    Such a localization certifies that the arrangement is not free and not
    aspherical.  Only ranks <= 3 of the lattice are built.  Returns the first
    flat in deterministic order, or None.  The Moebius value of a generic
    localization of k hyperplanes needs no build: mu is 1 at the ambient
    space, -1 at each hyperplane and 1 at each of the C(k, 2) lines, so
    chi(1) = 0 gives mu = -C(k - 1, 2) at the flat.
    """
    if arr.rank < 3:
        return None
    uni = universe(arr, up_to_rank=3)
    lat_levels = uni.by_rank
    if len(lat_levels) < 4:
        return None
    for f in lat_levels[3]:
        members = bit_indices(uni.bits[f])
        k = len(members)
        if k < 4:
            continue
        # generic exactly when no line below the flat holds three hyperplanes
        if all(uni.bits[p].bit_count() == 2 for p in uni.parents[f]):
            return Flat(index=f, rank=3, contains=members, dim=uni.dim - 3, mobius=-comb(k - 1, 2))
    return None
