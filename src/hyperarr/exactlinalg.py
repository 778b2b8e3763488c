"""Exact linear algebra over Q on small vectors and subspaces, in integers.

There is one elimination: a fraction-free integer row echelon (IntEchelon),
with a back-substitution step for the reduced row echelon form.  Rational
input enters through canonicalize and clear_denominators, which read
`.numerator` and `.denominator` of any numbers.Rational and scale to
integers.  One primitive form (primitive) serves canonicalize, the echelon
rows, the lattice's traces and the chamber rays.  A subspace is stored as
its reduced row echelon form times one common denominator D, the least
positive integer that makes every entry an integer, so the stored rows are
canonical integers.  No floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Sequence


def clear_denominators(values: Sequence[Rational]) -> list[int]:
    """The values times the lcm of their denominators, as integers.

    Raises TypeError for an entry that is not a numbers.Rational.
    """
    den = 1
    for x in values:
        if not isinstance(x, Rational):
            raise TypeError(f"{x!r} is not a rational number")
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in values]


def canonicalize(vector: Sequence[Rational]) -> tuple[int, ...]:
    """Canonical primitive integer form of a rational covector.

    Scales by the common denominator and takes the primitive form.  Two
    covectors define the same hyperplane iff they canonicalize identically.
    """
    canon = primitive(clear_denominators(vector))
    if not any(canon):
        raise ValueError("zero covector does not define a hyperplane")
    return canon


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries, signed so that
    its first nonzero entry is positive (zero stays zero).  A tuple already
    in that form comes back itself, as tuple() returns a tuple unchanged."""
    g = gcd(*vector)
    for x in vector:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(vector) if g in (0, 1) else tuple([x // g for x in vector])


class IntEchelon:
    """Division-free integer row echelon; supports rank and membership tests.

    Rows are primitive integer tuples with strictly increasing pivot columns
    and positive pivots.  Reduction of v against a row r with pivot p at column
    c replaces v by p*v - v[c]*r, then takes the primitive form, so all
    arithmetic stays in Z.
    """

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int):
        self.n = n
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    def copy(self) -> "IntEchelon":
        other = IntEchelon(self.n)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Reduce vector against the stored rows, in primitive form; zero iff
        in the row space."""
        v = list(vector)
        for r, c in zip(self.rows, self.pivots):
            vc = v[c]
            if vc:
                p = r[c]
                v = [p * a - vc * b for a, b in zip(v, r)]
        return primitive(v)

    def contains(self, vector: Sequence[int]) -> bool:
        return not any(self.residue(vector))

    def add(self, vector: Sequence[int]) -> bool:
        """Adjoin a vector; returns True if it enlarged the span."""
        res = self.residue(vector)
        for c, x in enumerate(res):
            if x:
                pos = bisect_left(self.pivots, c)
                self.rows.insert(pos, res)
                self.pivots.insert(pos, c)
                return True
        return False

    def reduced(self) -> list[tuple[int, ...]]:
        """The reduced row echelon form times its common denominator D.

        Back-substitution clears row i in the pivot column of every later row
        j by p_j*r_i - r_i[c_j]*r_j; row j is zero left of c_j, so columns
        already cleared stay clear.  Each primitive result r_i is the reduced
        row times its pivot p_i, so D = lcm(p_i) and row i is scaled by
        D / p_i.  Every returned row holds D in its own pivot column and 0 in
        the others, and the rows depend only on the row space.
        """
        prim = []
        for i, r in enumerate(self.rows):
            for s, c in zip(self.rows[i + 1 :], self.pivots[i + 1 :]):
                rc = r[c]
                if rc:
                    p = s[c]
                    r = [p * a - rc * b for a, b in zip(r, s)]
            prim.append(primitive(r))
        d = lcm(*(r[c] for r, c in zip(prim, self.pivots)))
        return [tuple(x * (d // r[c]) for x in r) for r, c in zip(prim, self.pivots)]


def rank_of(vectors: Iterable[Sequence[int]], n: int) -> int:
    """Rank of a family of integer vectors in Z^n."""
    ech = IntEchelon(n)
    for v in vectors:
        ech.add(v)
    return ech.rank


def primitive_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the null space {v : r . v = 0 for all rows}.

    Read from the D-scaled reduced rows: the vector of free column f has D at
    f and minus each row's entry in column f at that row's pivot.  Each vector
    is primitive with first nonzero entry positive.  Deterministic: one
    vector per free column, in column order.
    """
    ech = IntEchelon(n)
    for row in rows:
        ech.add(row)
    red = ech.reduced()
    d = red[0][ech.pivots[0]] if red else 1
    pivot_set = set(ech.pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = d
        for row, p in zip(red, ech.pivots):
            v[p] = -row[free]
        basis.append(canonicalize(v))
    return basis


class SubspaceBasis:
    """A linear subspace of Q^n in a canonical integer basis.

    Two SubspaceBasis values compare equal iff they are the same subspace, so
    they are safe as dict keys.
    """

    __slots__ = {
        "n": "Dimension of the ambient space Q^n.",
        "rows": "The reduced row echelon form scaled by one common denominator D, "
        "the least positive integer that clears it: integer rows, each holding D "
        "in its own pivot column and 0 in the other pivot columns.",
    }

    def __init__(self, n: int, rows: Sequence[Sequence[int]]):
        self.n = n
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Rational]], n: int) -> "SubspaceBasis":
        ech = IntEchelon(n)
        for v in vectors:
            ech.add(clear_denominators(v))
        return cls(n, ech.reduced())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubspaceBasis) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"SubspaceBasis(n={self.n}, dim={self.dim})"
