"""Exact linear algebra used by the homology and resolution machinery.

Vectors are plain lists of Python ints.  Over the rationals (char 0) rows are
kept primitive (content 1, first nonzero entry positive) and elimination uses
integer cross-multiplication, so no floating point appears.  Char-0
``kernel_basis`` is the exception to integer-only arithmetic: it
back-substitutes each kernel vector with ``Fraction`` before clearing
denominators, and that is most of the char-0 resolver's time (ROADMAP item 3
names a fraction-free replacement).  Over GF(p) entries are canonical
representatives in [0, p).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize(row):
    """Make an integer row primitive with positive leading entry (in place)."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        for i, x in enumerate(row):
            row[i] = x // g
    for x in row:
        if x > 0:
            return row
        if x < 0:
            return [-y for y in row]
    return row


class EchelonSpace:
    """Incrementally built row space in echelon form (pivot = first nonzero)."""

    def __init__(self, ncols: int, char: int = 0):
        self.ncols = ncols
        self.char = char
        self.rows = []
        self.row_of_col = {}  # pivot column -> index into rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced against the stored pivots (a fresh list)."""
        p = self.char
        v = [x % p for x in vec] if p else list(vec)
        for j in range(self.ncols):
            if not v[j]:
                continue
            r = self.row_of_col.get(j)
            if r is None:
                break
            row = self.rows[r]
            if p:
                factor = (v[j] * pow(row[j], -1, p)) % p
                for k in range(j, self.ncols):
                    if row[k]:
                        v[k] = (v[k] - factor * row[k]) % p
            else:
                a, b = row[j], v[j]
                for k in range(self.ncols):
                    v[k] = v[k] * a - row[k] * b
                _normalize(v)
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec's residual; True if it enlarged the space."""
        v = self.reduce(vec)
        for j in range(self.ncols):
            if v[j]:
                self.row_of_col[j] = len(self.rows)
                self.rows.append(v if self.char else _normalize(v))
                return True
        return False


def rank_of(rows, ncols: int, char: int = 0) -> int:
    space = EchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
    return space.dim


def kernel_basis(rows, ncols: int, char: int = 0):
    """Basis of the right kernel {v : M v = 0} as primitive integer vectors.

    Deterministic: one vector per non-pivot column, in column order.
    """
    space = EchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
    pivot_cols = sorted(space.row_of_col)
    free_cols = [c for c in range(ncols) if c not in space.row_of_col]
    ordered = [(c, space.rows[space.row_of_col[c]]) for c in pivot_cols]
    basis = []
    for f in free_cols:
        if char:
            v = [0] * ncols
            v[f] = 1
            for p, row in reversed(ordered):
                s = sum(row[k] * v[k] for k in range(p + 1, ncols) if row[k] and v[k])
                v[p] = (-s * pow(row[p], -1, char)) % char
        else:
            w = [Fraction(0)] * ncols
            w[f] = Fraction(1)
            for p, row in reversed(ordered):
                s = sum(row[k] * w[k] for k in range(p + 1, ncols) if row[k] and w[k])
                w[p] = Fraction(-s, row[p])
            lcm = 1
            for x in w:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
            v = _normalize([int(x * lcm) for x in w])
        basis.append(v)
    return basis

