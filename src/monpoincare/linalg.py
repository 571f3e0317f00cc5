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
a fresh space.  ``unpack`` turns a packed vector back into a {column: entry}
dict.  No other module looks inside a packed row.

Over GF(2) ``EchelonSpace`` keeps each row keyed by its lowest set bit, in
forward echelon form: a vector is reduced by XOR-ing the row of its lowest
set bit until that bit is not a pivot, and no earlier row is touched when a
row is added; nothing back-substitutes.  An XOR clears a whole row in one
C-level operation (the packed rows of M4RI; Albrecht and Bard, "The M4RI
library").

Over every other field the rows are dicts in reduced echelon form: no other
row has an entry in a pivot column.  Over GF(p) entries are canonical
representatives in [0, p) and every pivot is 1.  Over the rationals (char 0)
entries are integers, every row is primitive (content 1) with a positive
pivot, and elimination cross-multiplies, so no fraction or float appears.
Reducing a vector eliminates each pivot in its support once.

``kernel_basis`` takes a matrix as its packed columns, each labelled by an
index, and eliminates forward over the columns, each carrying its
combination of labels; a column that reduces to zero gives a kernel vector,
already packed over the labels.
"""
from __future__ import annotations

from math import gcd


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


def _eliminate(v: dict, c: int, row: dict, p: int) -> None:
    """Clear column c of v with row, whose pivot is c (in place), over GF(p)
    or, for p = 0, over Q: there v becomes a primitive multiple of the result."""
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
            _eliminate(v, c, rows[c], self.char)
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
                    _eliminate(row, c, v, p)
            rows[c] = v
            if len(rows) >= limit:
                return


def rank_of(rows, ncols: int, char: int = 0) -> int:
    space = EchelonSpace(char)
    space.extend(rows, ncols)
    return space.dim


def kernel_basis(columns: dict, nrows: int, char: int = 0) -> list:
    """Basis of the kernel of the matrix whose columns are ``columns``, a
    {label: packed column} dict in ascending label order over ``nrows`` rows
    (which only size the matrix), each kernel vector packed over the labels.

    Each column is reduced by the independent columns before it, in forward
    echelon form, carrying its combination of labels.  A column that reduces
    to zero gives a kernel vector: itself minus its unique expression through
    the earlier independent columns.  So there is one vector per dependent
    column, in label order, with 0 at every other dependent column: entry 1
    at its own over GF(p), and over Q the primitive multiple whose first
    (lowest-label) entry is positive.
    """
    pivots = {}
    basis = []
    if char == 2:
        # lowest set bit -> (reduced column, its combination)
        for label, v in columns.items():
            comb = 1 << label
            # 0 is no key, so a zero v stops the loop too
            while piv := pivots.get(v & -v):
                v, comb = v ^ piv[0], comb ^ piv[1]
            if v:
                pivots[v & -v] = v, comb
            else:
                basis.append(comb)
        return basis
    # highest row -> its reduced column, pivot entry 1 over GF(p).  The
    # combination rides in the same dict at the keys ~label, below every row,
    # so the highest key is a row until the column is zero
    for label, col in columns.items():
        v = dict(col)
        v[~label] = 1
        while (r := max(v)) >= 0 and (row := pivots.get(r)):
            _eliminate(v, r, row, char)
        if r < 0:  # v[r] is the entry at the lowest label
            sign = -1 if v[r] < 0 else 1
            basis.append({~k: sign * x for k, x in v.items()})
        else:
            if char and (inv := pow(v[r], -1, char)) != 1:
                for k in v:
                    v[k] = v[k] * inv % char
            pivots[r] = v
    return basis


def unpack(vec) -> dict:
    """A packed vector as a {index: entry} dict: each set bit of a GF(2) int
    with entry 1; a dict (every other field) is that form already."""
    if not isinstance(vec, int):
        return vec
    out = {}
    while vec:
        out[(vec & -vec).bit_length() - 1] = 1
        vec &= vec - 1
    return out
