"""Exact sparse linear algebra used by the homology and resolution machinery.

An input row is a dict {column: nonzero entry}; a list is read as the same
row.  The pivot of a stored row is its first nonzero column.

``pack`` turns a row into the form ``EchelonSpace`` stores, which ``add``,
``contains`` and ``extend`` also take as input, so a caller that offers the
same vector at many places packs it once: over GF(2) an int bitmask (bit c
set iff column c is odd), over every other field a {column: entry} dict with
entries reduced mod p.  ``pack_rows`` packs the rows of a matrix given by
columns (its transpose) in one pass.  ``support`` turns a set of columns into
a mask (an int over GF(2), else a set) and ``restrict`` keeps a packed row's
entries on those columns only (one ``&`` over GF(2)), so a caller can offer
the same packed vector on many column subsets.  ``extend`` takes a batch of
rows in one call and stops at a dimension limit; ``rank_of`` is ``extend`` on
a fresh space.  No other module looks inside a packed row.

Over GF(2) ``EchelonSpace`` keeps each row keyed by its lowest set bit, in
forward echelon form: a vector is reduced by XOR-ing the row of its lowest
set bit until that bit is not a pivot, and no earlier row is touched when a
row is added.  Only ``kernel_basis`` back-substitutes, once, at the end.  An
XOR clears a whole row in one C-level operation (the packed rows of M4RI;
Albrecht and Bard, "The M4RI library").

Over every other field the rows are dicts in reduced echelon form: no other
row has an entry in a pivot column.  Over GF(p) entries are canonical
representatives in [0, p) and every pivot is 1.  Over the rationals (char 0)
entries are integers, every row is primitive (content 1) with a positive
pivot, and elimination cross-multiplies, so no fraction or float appears.
Reducing a vector eliminates each pivot in its support once.

``kernel_basis`` reads every kernel vector straight off the reduced rows, as
a sparse row itself.
"""
from __future__ import annotations

from math import gcd, lcm


def _sparse(vec, p: int) -> dict:
    """A fresh {column: entry} copy of a dict or list row, entries mod p."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p:
        return {c: y for c, x in items if (y := x % p)}
    return {c: x for c, x in items if x}


def _bits(vec) -> int:
    """A dict or list row over GF(2) as an int whose bit c is entry c mod 2."""
    v = 0
    for c, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
        if x & 1:
            v |= 1 << c
    return v


def pack(vec, char: int):
    """A dict or list row in the form ``EchelonSpace`` stores: an int bitmask
    over GF(2), else a fresh {column: entry} dict with entries mod char."""
    return _bits(vec) if char == 2 else _sparse(vec, char)


def pack_rows(columns, nrows: int, char: int) -> list:
    """The rows of the matrix whose columns are the {row: entry} dicts
    ``columns``, each row in ``pack`` form over the column indices: the
    transpose, packed in one pass over the entries."""
    if char == 2:
        rows = [0] * nrows
        for c, column in enumerate(columns):
            bit = 1 << c
            for r, x in column.items():
                if x & 1:
                    rows[r] |= bit
        return rows
    rows = [{} for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, x in column.items():
            if y := x % char if char else x:
                rows[r][c] = y
    return rows


def support(columns, char: int):
    """The columns as the mask ``restrict`` takes: an int with their bits set
    over GF(2), else a set."""
    if char != 2:
        return set(columns)
    mask = 0
    for c in columns:
        mask |= 1 << c
    return mask


def restrict(row, keep):
    """A packed row with its entries outside the columns ``keep`` (from
    ``support``) dropped; the row itself is not changed."""
    if isinstance(keep, int):
        return row & keep
    return {c: x for c, x in row.items() if c in keep}


def _make_primitive(row: dict) -> None:
    """Divide an integer row by its content (in place)."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


class EchelonSpace:
    """Incrementally built row space: forward-echelon bitmask rows over GF(2),
    reduced-echelon dict rows over every other field.

    Every method takes a row as a dict, a list or a ``pack``-ed row.
    """

    def __init__(self, char: int = 0):
        self.char = char
        # GF(2): lowest set bit -> row bitmask; else pivot column -> reduced row
        self.rows = {}

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

    def _reduce(self, vec):
        """vec minus its part along the stored rows: a bitmask over GF(2),
        else a fresh dict."""
        rows = self.rows
        if self.char == 2:
            v = vec if isinstance(vec, int) else _bits(vec)
            # 0 is no key, so a zero v stops the loop too
            while row := rows.get(v & -v):
                v ^= row
            return v
        v = _sparse(vec, self.char)
        # a stored row is zero at every other pivot, so eliminating one pivot
        # leaves v's entries at the others unchanged
        for c in [c for c in v if c in rows]:
            self._eliminate(v, c, rows[c])
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Insert vec's residual; True if it enlarged the space."""
        dim = len(self.rows)
        self.extend((vec,), dim + 1)
        return len(self.rows) > dim

    def extend(self, vecs, limit: int) -> None:
        """Insert the residuals of vecs, in order, until the dimension
        reaches limit; the vectors past that point are not read."""
        rows, p = self.rows, self.char
        if len(rows) >= limit:
            return
        if p == 2:
            # _reduce, inlined: the rows of a span arrive here by the thousand
            for v in vecs:
                if not isinstance(v, int):
                    v = _bits(v)
                while row := rows.get(v & -v):
                    v ^= row
                if v:
                    rows[v & -v] = v
                    if len(rows) >= limit:
                        return
            return
        for vec in vecs:
            v = self._reduce(vec)
            if not v:
                continue
            c = min(v)
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
            for row in rows.values():
                if c in row:
                    self._eliminate(row, c, v)
            rows[c] = v
            if len(rows) >= limit:
                return


def rank_of(rows, ncols: int, char: int = 0) -> int:
    space = EchelonSpace(char)
    space.extend(rows, ncols)
    return space.dim


def kernel_basis(rows, ncols: int, char: int = 0):
    """Basis of the right kernel {v : M v = 0} as primitive integer vectors.

    Deterministic: one sparse vector {column: nonzero entry} per non-pivot
    column f, in column order, the one with entry 1 at f (over GF(p); over Q
    its primitive multiple with first nonzero entry positive) and 0 at every
    other non-pivot column.  Its entry at a pivot c is -row_c[f] / row_c[c],
    read off the reduced row, so building the basis costs the nonzeros of the
    reduced rows, not ncols per vector.  Over GF(2) the forward-echelon rows
    are reduced once, here, before the vectors are read off.
    """
    space = EchelonSpace(char)
    space.extend(rows, ncols)
    if char == 2:
        return _kernel_basis_bits(space.rows, ncols)
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


def _kernel_basis_bits(rows: dict, ncols: int):
    """``kernel_basis`` over GF(2) from forward-echelon bitmask rows, which it
    reduces in place.

    Going down from the highest pivot, each row XORs in the reduced rows of
    the higher pivots it holds (``row & pivots``); a reduced row holds no
    pivot but its own, so the cost follows the set bits, not rank squared.
    """
    pivots = sum(rows)
    for low in sorted(rows, reverse=True):
        row = rows[low]
        held = row & pivots ^ low
        while held:
            h = held & -held
            row ^= rows[h]
            held ^= h
        rows[low] = row
    # non-pivot column -> pivots of the rows reaching it, in insertion order
    reach = {f: [] for f in range(ncols) if not pivots >> f & 1}
    for low, row in rows.items():
        c = low.bit_length() - 1
        rest = row ^ low
        while rest:
            h = rest & -rest
            reach[h.bit_length() - 1].append(c)
            rest ^= h
    basis = []
    for f, hits in reach.items():
        v = dict.fromkeys(hits, 1)
        v[f] = 1
        basis.append(v)
    return basis
