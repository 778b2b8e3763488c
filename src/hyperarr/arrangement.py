"""Central rational hyperplane arrangements and the hyperpolygonal family.

An arrangement is an immutable ordered tuple of distinct canonical integer
covectors in Q^dim; hyperplane i is the kernel of covector i.  The
hyperpolygonal arrangement of order n lives in Q^n and consists of the n
coordinate hyperplanes together with one hyperplane ker(sum_{i in I} x_i -
sum_{j not in I} x_j) for each class {I, [n] \\ I} of nonempty proper-or-full
subsets, so it has n + 2^(n-1) hyperplanes for n >= 2.
"""

from __future__ import annotations

import itertools
import re
import sys
import warnings
from functools import cached_property
from numbers import Rational
from typing import Iterable, Sequence

from .exactlinalg import (
    IntEchelon,
    SubspaceBasis,
    canonicalize,
    clear_denominators,
    primitive_kernel_basis,
    rank_of,
)

Covector = tuple[int, ...]


class ParseError(ValueError):
    """Malformed arrangement text input."""


class Arrangement:
    """An ordered central arrangement given by canonical integer covectors.

    A frozen value: equal arrangements hash alike, and assigning or deleting
    an attribute raises AttributeError.  The instance dict holds dim,
    covectors and the cached properties; the lattice cache keys on weak
    references to it.
    """

    dim: int
    covectors: tuple[Covector, ...]

    def __init__(self, dim: int, covectors: tuple[Covector, ...]):
        seen = set()
        for c in covectors:
            if len(c) != dim:
                raise ValueError(f"covector {c} has length {len(c)}, expected {dim}")
            if c != canonicalize(c):
                raise ValueError(f"covector {c} is not canonical")
            if c in seen:
                raise ValueError(f"duplicate hyperplane {c}")
            seen.add(c)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "covectors", covectors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.covectors == other.covectors

    def __hash__(self) -> int:
        return hash((self.dim, self.covectors))

    def __repr__(self) -> str:
        return f"Arrangement(dim={self.dim!r}, covectors={self.covectors!r})"

    def __len__(self) -> int:
        return len(self.covectors)

    def __iter__(self):
        return iter(self.covectors)

    @cached_property
    def _span(self) -> IntEchelon | None:
        """The integer echelon of the covectors, in order, when it has fewer
        rows than dim, else None.  Its pivot columns are the coordinates of
        the span of the normals: rank, essentialize and the lattice engine
        all read this one echelon.  An essential arrangement keeps none, as
        its coordinates are the ambient ones."""
        ech = IntEchelon(self.dim)
        for c in self.covectors:
            ech.add(c)
        return ech if ech.rank < self.dim else None

    @cached_property
    def rank(self) -> int:
        return self.dim if self._span is None else self._span.rank

    @property
    def is_essential(self) -> bool:
        return self.rank == self.dim

    def index_of(self, covector: Sequence[int]) -> int:
        return self.covectors.index(canonicalize(covector))

    def checked_indices(self, indices: Iterable[int]) -> tuple[int, ...]:
        """The distinct hyperplane indices in increasing order; an index
        outside 0..m-1 raises IndexError, so -1 is never the last one."""
        idx = sorted(set(indices))
        if idx and (idx[0] < 0 or idx[-1] >= len(self.covectors)):
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise IndexError(f"hyperplane index {bad} out of range 0..{len(self.covectors) - 1}")
        return tuple(idx)

    def subset(self, indices: Iterable[int]) -> "Arrangement":
        """Subarrangement keeping the original relative order and ambient space."""
        return Arrangement(self.dim, tuple(self.covectors[i] for i in self.checked_indices(indices)))

    def with_hyperplane(self, covector: Sequence[int]) -> "Arrangement":
        """Arrangement extended by one new hyperplane (appended last).

        Only the new covector is checked, as self's were when it was made, so
        a chain of k additions canonicalizes k covectors, not O(k^2).
        """
        c = canonicalize(covector)
        if len(c) != self.dim:
            raise ValueError(f"covector {c} has length {len(c)}, expected {self.dim}")
        if c in self.covectors:
            raise ValueError(f"hyperplane {c} already present")
        extended = object.__new__(Arrangement)
        object.__setattr__(extended, "dim", self.dim)
        object.__setattr__(extended, "covectors", self.covectors + (c,))
        return extended

    def delete(self, index: int) -> "Arrangement":
        self.checked_indices((index,))
        return Arrangement(
            self.dim, self.covectors[:index] + self.covectors[index + 1 :]
        )


def from_vectors(dim: int, vectors: Iterable[Sequence[Rational]]) -> Arrangement:
    """Build an arrangement from raw covectors; raises on duplicates."""
    return Arrangement(dim, tuple(canonicalize(v) for v in vectors))


def hyperpolygonal(n: int) -> Arrangement:
    """The hyperpolygonal arrangement of order n in Q^n.

    Ordering is deterministic: coordinate hyperplanes x_1..x_n first, then the
    subset-defined hyperplanes indexed by the class representative I not
    containing n, sorted by (|I|, lexicographic).  I = {} represents the class
    of the full set [n], i.e. ker(x_1 + ... + x_n).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    covs: list[Covector] = []
    for i in range(n):
        covs.append(canonicalize([1 if j == i else 0 for j in range(n)]))
    reps: list[tuple[int, ...]] = []
    for size in range(n):
        reps.extend(itertools.combinations(range(n - 1), size))
    for rep in reps:
        vec = [1 if i in rep else -1 for i in range(n)]
        c = canonicalize(vec)
        if c not in covs:
            covs.append(c)
    return Arrangement(n, tuple(covs))


def boolean(n: int) -> Arrangement:
    """The coordinate (Boolean) arrangement in Q^n."""
    return from_vectors(n, ([1 if j == i else 0 for j in range(n)] for i in range(n)))


def hyperplane_subspace(covector: Sequence[int], dim: int) -> SubspaceBasis:
    """The hyperplane ker(covector) as a subspace of Q^dim."""
    return SubspaceBasis.from_vectors(primitive_kernel_basis([list(covector)], dim), dim)


def restrict_to_subspace(arr: Arrangement, subspace: SubspaceBasis) -> Arrangement:
    """Restriction of the arrangement to a subspace X.

    Coordinates on X are the canonical reduced-row-echelon basis rows of X, so
    the output is deterministic.  The trace of a covector is its integer dot
    product with each D-scaled row of X, canonicalized (the common factor D
    drops out).  Hyperplanes containing X disappear; the rest restrict to
    hyperplanes of X, merged when their traces coincide, keeping first-seen
    order.
    """
    if subspace.dim == 0:
        raise ValueError("restriction to the origin is not an arrangement")
    rows = subspace.rows
    out: dict[Covector, None] = {}
    for c in arr.covectors:
        local = [sum(ci * ri for ci, ri in zip(c, row)) for row in rows]
        if any(local):  # otherwise the hyperplane contains X
            out.setdefault(canonicalize(local))
    return Arrangement(subspace.dim, tuple(out))


def restriction_to_hyperplane(arr: Arrangement, index: int) -> Arrangement:
    """The restriction of arr to its index-th hyperplane."""
    arr.checked_indices((index,))
    return restrict_to_subspace(arr, hyperplane_subspace(arr.covectors[index], arr.dim))


def triple(arr: Arrangement, index: int) -> tuple[Arrangement, Arrangement, Arrangement]:
    """(arrangement, deletion, restriction) with respect to hyperplane index."""
    return arr, arr.delete(index), restriction_to_hyperplane(arr, index)


def essentialize(arr: Arrangement) -> Arrangement:
    """Image of the arrangement in the quotient by its center.

    Covectors are rewritten in coordinates with respect to the canonical RREF
    basis of their span, which are their entries in its pivot columns; the
    intersection lattice is unchanged.  Essential arrangements are returned
    unchanged.
    """
    if arr.is_essential:
        return arr
    pivots = arr._span.pivots
    covs = [canonicalize([c[p] for p in pivots]) for c in arr.covectors]
    return Arrangement(len(pivots), tuple(covs))


def is_generic(arr: Arrangement) -> bool:
    """True iff |A| > r(A) and every r(A)-subset of covectors has rank r(A).

    Genericity is measured against the rank, not the ambient dimension, so a
    non-essential arrangement is generic exactly when its essentialization is.
    With |A| > r, some r-subset is dependent exactly when a flat of rank
    k < r holds more than k hyperplanes: a dependent r-subset spans such a
    flat, and k + 1 hyperplanes of such a flat with any r - k - 1 others
    form a dependent r-subset.  So the lattice is read one rank at a time,
    from the lines up, and the build stops at the first overfull rank.
    """
    from .lattice import universe

    r = arr.rank
    if len(arr) <= r:
        return False
    for k in range(2, r):
        uni = universe(arr, up_to_rank=k)
        if any(uni.bits[f].bit_count() > k for f in uni.by_rank[k]):
            return False
    return True


def verify_linear_isomorphism(
    source: Arrangement, target: Arrangement, matrix: Sequence[Sequence[Rational]]
) -> bool:
    """Check that a substitution x_i -> row_i(matrix) maps source onto target.

    matrix row i gives the image of the coordinate form x_i, so a covector c
    maps to c . matrix.  True iff the matrix is invertible and the induced map
    on canonical covectors is a bijection from source's hyperplanes onto
    target's.  The matrix is cleared of denominators once, by one common
    denominator, which canonicalization ignores.
    """
    if source.dim != target.dim:
        raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
    n = target.dim
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError("matrix shape does not match the ambient dimension")
    flat = clear_denominators([x for row in matrix for x in row])
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    if rank_of(rows, n) != n:
        raise ValueError("matrix is singular")
    if len(source) != len(target):
        return False
    images = {
        canonicalize([sum(ci * rows[i][j] for i, ci in enumerate(c)) for j in range(n)])
        for c in source.covectors
    }
    return images == set(target.covectors)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(tok: str, lineno: int) -> int | None:
    """tok as an ASCII decimal integer, or None if it is not one (int() alone
    also reads 1_0 and non-ASCII digits).  Past Python's int-string limit the
    digits cannot be read, which is a ParseError of its own."""
    if not _DECIMAL.fullmatch(tok):
        return None
    try:
        return int(tok)
    except ValueError:  # the digits match, so only the limit is left
        raise ParseError(
            f"line {lineno}: a number of {len(tok.lstrip('+-'))} digits exceeds Python's "
            f"limit of {sys.get_int_max_str_digits()} digits for integer text"
        ) from None


def _excerpt(text: str, width: int = 60) -> str:
    """repr of text, cut short after width characters."""
    return repr(text if len(text) <= width else text[:width] + "...")


def parse_arrangement_text(text: str) -> Arrangement:
    """Parse the plain text format: first line `dim L`, then one covector per line.

    `#` starts a comment; blank lines are skipped.  Numbers are ASCII decimal
    integers with an optional sign.  Covectors are canonicalized; duplicates
    are dropped with a warning.
    """
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty input")
    head_no, head_text = lines[0]
    head = head_text.split()
    if len(head) != 2 or head[0] != "dim":
        raise ParseError(f"line {head_no}: first line must be 'dim L', got {_excerpt(head_text)}")
    dim = _decimal(head[1], head_no)
    if dim is None:
        raise ParseError(f"line {head_no}: bad dimension {_excerpt(head[1])}")
    if dim < 1:
        raise ParseError(f"line {head_no}: dimension must be >= 1")
    covs: dict[Covector, None] = {}  # first-seen order
    for lineno, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != dim:
            raise ParseError(f"line {lineno}: expected {dim} entries, got {len(toks)}: {_excerpt(ln)}")
        vec = [_decimal(t, lineno) for t in toks]
        if None in vec:
            raise ParseError(f"line {lineno}: non-integer entry in {_excerpt(ln)}")
        if all(x == 0 for x in vec):
            raise ParseError(f"line {lineno}: zero covector: {_excerpt(ln)}")
        c = canonicalize(vec)
        if c in covs:
            warnings.warn(f"line {lineno}: duplicate hyperplane {c} dropped", stacklevel=2)
            continue
        covs[c] = None
    return Arrangement(dim, tuple(covs))


def format_arrangement_text(arr: Arrangement) -> str:
    lines = [f"dim {arr.dim}"]
    lines.extend(" ".join(str(x) for x in c) for c in arr.covectors)
    return "\n".join(lines) + "\n"
