"""Tiny exact integer polynomial helpers (coefficient tuples, ascending degree)."""

from __future__ import annotations

from typing import Sequence

IntPoly = tuple[int, ...]


def trim(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0,)


def add(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def multiply(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def evaluate(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monic_linear_roots(p: Sequence[int]) -> tuple[int, ...] | None:
    """Roots (with multiplicity) if p factors as prod (t - b_i), b_i >= 0 integers.

    Returns the sorted root tuple, or None if p does not split that way.
    Uses exact synthetic division; p must be monic.
    """
    p = list(trim(p))
    if not p or p[-1] != 1:
        return None
    # strip the t^k factor in one slice; p[-1] == 1 ends the scan
    k = 0
    while not p[k]:
        k += 1
    roots = [0] * k
    if k:
        p = p[k:]
    # a positive integer root divides the constant term (nonzero from here on)
    for b in _positive_divisors(abs(p[0])):
        if len(p) == 1:
            break
        while len(p) > 1 and evaluate(p, b) == 0:
            # synthetic division by (t - b)
            q = [0] * (len(p) - 1)
            carry = p[-1]
            for i in range(len(p) - 2, -1, -1):
                q[i] = carry
                carry = p[i] + carry * b
            if carry != 0:
                raise AssertionError("inexact synthetic division")
            p = q
            roots.append(b)
    if len(p) > 1:
        return None
    return tuple(sorted(roots))


def _positive_divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def format_poly(p: Sequence[int], var: str = "t") -> str:
    """Human-readable form like 't^2 - 4t + 3'."""
    p = trim(p)
    parts: list[str] = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        elif i == 1:
            term = f"{var}" if mag == 1 else f"{mag}{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{mag}{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
