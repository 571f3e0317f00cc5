"""Exact sparse linear algebra used by the homology and resolution machinery.

A row is a dict {column: nonzero entry}; a list is read as the same row.
``EchelonSpace`` keeps its rows in reduced echelon form: the pivot of a row is
its first nonzero column, and no other row has an entry in a pivot column.
Over GF(p) entries are canonical representatives in [0, p) and every pivot is
1.  Over the rationals (char 0) entries are integers, every row is primitive
(content 1) with a positive pivot, and elimination cross-multiplies, so no
fraction or float appears.  Reducing a vector eliminates each pivot in its
support once, and ``kernel_basis`` reads every kernel vector straight off the
reduced rows, as a sparse row itself.
"""
from __future__ import annotations

from math import gcd, lcm


def _sparse(vec, p: int) -> dict:
    """A fresh {column: entry} copy of a dict or list row, entries mod p."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p:
        return {c: y for c, x in items if (y := x % p)}
    return {c: x for c, x in items if x}


def _make_primitive(row: dict) -> None:
    """Divide an integer row by its content (in place)."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


class EchelonSpace:
    """Incrementally built row space in reduced echelon form."""

    def __init__(self, ncols: int, char: int = 0):
        self.ncols = ncols
        self.char = char
        self.rows = {}  # pivot column -> reduced row {column: entry}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, v: dict, c: int, row: dict) -> None:
        """Clear column c of v with row, whose pivot is c (in place)."""
        p = self.char
        if p:
            f = v[c]  # the pivot is 1
            for k, x in row.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    del v[k]
            return
        g = gcd(row[c], v[c])
        a, b = row[c] // g, v[c] // g
        if a != 1:
            for k in v:
                v[k] *= a
        for k, x in row.items():
            y = v.get(k, 0) - b * x
            if y:
                v[k] = y
            else:
                del v[k]
        if v:
            _make_primitive(v)

    def _reduce(self, vec) -> dict:
        """vec minus its part along the stored rows (a fresh dict)."""
        v = _sparse(vec, self.char)
        rows = self.rows
        # a stored row is zero at every other pivot, so eliminating one pivot
        # leaves v's entries at the others unchanged
        for c in [c for c in v if c in rows]:
            self._eliminate(v, c, rows[c])
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Insert vec's residual; True if it enlarged the space."""
        v = self._reduce(vec)
        if not v:
            return False
        c = min(v)
        p = self.char
        if p:
            inv = pow(v[c], -1, p)
            if inv != 1:
                for k in v:
                    v[k] = v[k] * inv % p
        else:
            _make_primitive(v)
            if v[c] < 0:
                for k in v:
                    v[k] = -v[k]
        for row in self.rows.values():
            if c in row:
                self._eliminate(row, c, v)
        self.rows[c] = v
        return True


def rank_of(rows, ncols: int, char: int = 0) -> int:
    space = EchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
        if space.dim == ncols:
            break
    return space.dim


def kernel_basis(rows, ncols: int, char: int = 0):
    """Basis of the right kernel {v : M v = 0} as primitive integer vectors.

    Deterministic: one sparse vector {column: nonzero entry} per non-pivot
    column f, in column order, the one with entry 1 at f (over GF(p); over Q
    its primitive multiple with first nonzero entry positive) and 0 at every
    other non-pivot column.  Its entry at a pivot c is -row_c[f] / row_c[c],
    read off the reduced row, so building the basis costs the nonzeros of the
    reduced rows, not ncols per vector.
    """
    space = EchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
    # non-pivot column -> (pivot, entry, pivot entry) of the rows reaching it
    reach = {f: [] for f in range(ncols) if f not in space.rows}
    for c, row in space.rows.items():
        for f, x in row.items():
            if f != c:
                reach[f].append((c, x, row[c]))
    basis = []
    for f, hits in reach.items():
        if char:
            v = {c: -x % char for c, x, _ in hits}
            v[f] = 1
        else:
            scale = lcm(*(a for _, _, a in hits))
            v = {c: -x * (scale // a) for c, x, a in hits}
            v[f] = scale
            g = gcd(*v.values())
            if v[min(v)] < 0:
                g = -g
            if g != 1:
                v = {c: x // g for c, x in v.items()}
        basis.append(v)
    return basis
