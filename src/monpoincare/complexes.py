"""Multigraded free chain complexes over S or R = S/I.

A ring S/I is given by its monomial ideal I (a ``MonomialIdeal``), and S by
the zero ideal in the same variables; ``ring.kills(m)`` asks whether x^m is
zero in the ring.

Because every differential is multidegree-homogeneous, an entry from a column
generator of multidegree c to a row generator of multidegree r is a single
term: scalar times the monomial x^(c - r).  Only the scalar is stored; the
monomial is implied by the generator degrees.  Over R, entries whose implied
monomial lies in the defining ideal are dropped at construction time.

``homology`` and the resolver work cell by cell in a box of multidegrees
j <= bound.  There a cell is one int, its ``core.Box`` code (the mixed-radix
index of j), so the per-cell tables (standard cells, alive indexes, ranks)
are keyed by ints, and a cell's alive cells are found by adding strides.  A
multidegree is decoded from its code only where it leaves the box
computation: module degrees, result keys and error messages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations

from .core import (
    Box,
    InternalInconsistencyError,
    MonomialIdeal,
    Multidegree,
    divides,
    mask_subset,
    mdeg_join,
    mdeg_sub,
    zero_mdeg,
)
from .linalg import pack, pack_rows, rank_of, restrict, support


@dataclass
class FreeComplex:
    """Chain complex of multigraded free modules over ``ring``, the ideal I
    of R = S/I (the zero ideal for S).

    ``modules[i]`` lists the generator multidegrees in homological degree i;
    ``diffs[i]`` holds the differential modules[i] -> modules[i-1] by column:
    one {row: nonzero scalar} dict per generator of modules[i], so diffs[0]
    holds empty columns.  ``labels`` may carry a parallel structure naming
    the generators (subsets, wedge sets...).
    ``alive_memo`` maps a bound to one ``alive_index`` per module, keyed by
    the cell codes of ``Box(bound)``; only ``resolve_residue_field`` fills
    it, for its own box, so that ``homology`` over that box reads the
    resolver's indexes instead of rebuilding them.  It is not part of
    equality, and ``dataclasses.replace`` starts it empty.
    """

    ring: MonomialIdeal
    modules: list
    diffs: list
    labels: list | None = None
    char: int = 0
    alive_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def top_degree(self) -> int:
        return len(self.modules) - 1

    def ranks(self):
        return [len(m) for m in self.modules]

    def entry_monomial(self, i: int, row: int, col: int) -> Multidegree:
        return mdeg_sub(self.modules[i][col], self.modules[i - 1][row])

    def validate(self):
        """Check one column per generator and homogeneity of every entry;
        raise on violation."""
        if len(self.diffs) != len(self.modules):
            raise InternalInconsistencyError("modules/diffs length mismatch")
        for i, (diff, module) in enumerate(zip(self.diffs, self.modules)):
            if len(diff) != len(module):
                raise InternalInconsistencyError(
                    f"degree {i} has {len(module)} generators and {len(diff)} columns")
        kills = cache(self.ring.kills)  # one relation scan per distinct monomial
        for i in range(1, len(self.modules)):
            for c, column in enumerate(self.diffs[i]):
                for r, s in column.items():
                    if s == 0:
                        raise InternalInconsistencyError(
                            f"stored zero entry at degree {i} ({r},{c})")
                    mono = self.entry_monomial(i, r, c)
                    if any(e < 0 for e in mono):
                        raise InternalInconsistencyError(
                            f"inhomogeneous entry at degree {i} ({r},{c}): monomial {mono}")
                    if kills(mono):
                        raise InternalInconsistencyError(
                            f"entry at degree {i} ({r},{c}) should have been reduced to zero")

    def d_squared_violations(self):
        """All (i, row, col) where (d_{i-1} o d_i) is nonzero over the ring."""
        bad = []
        kills = cache(self.ring.kills)  # one relation scan per distinct monomial
        for i in range(2, len(self.modules)):
            lower = self.diffs[i - 1]
            for c, column in enumerate(self.diffs[i]):
                acc = {}
                for mid, s in column.items():
                    for r, t in lower[mid].items():
                        acc[r] = acc.get(r, 0) + s * t
                for r, total in acc.items():
                    if self.char:
                        total %= self.char
                    if total == 0:
                        continue
                    mono = mdeg_sub(self.modules[i][c], self.modules[i - 2][r])
                    if not kills(mono):
                        bad.append((i, r, c))
        return bad


def _entry(ring: MonomialIdeal, column: dict, row: int, scalar: int, mono: Multidegree):
    """Add ``scalar`` at ``row`` of one column of a differential, unless the
    ring kills the entry's monomial ``mono``; an entry that sums to zero is
    removed."""
    if scalar and not ring.kills(mono):
        new = column.get(row, 0) + scalar
        if new:
            column[row] = new
        else:
            column.pop(row, None)


def _subset_complex(ring: MonomialIdeal, atoms, faces_by_size) -> FreeComplex:
    """Simplicial-style complex over ``ring`` on subsets J of ``atoms`` (faces
    listed by size, increasing tuples of atom indices), where T_J has the lcm
    m_J of its atoms as multidegree.

    d(T_J) = sum over j in J at 1-based position a of (-1)^(a+1) (m_J/m_{J\\j}) T_{J\\j}.
    """
    modules, labels, diffs = [], [], []
    index = []
    for size, faces in enumerate(faces_by_size):
        modules.append([reduce(mdeg_join, (atoms[i] for i in f), zero_mdeg(ring.num_vars))
                        for f in faces])
        labels.append(list(faces))
        index.append({f: k for k, f in enumerate(faces)})
        diff = [{} for _ in faces]  # the empty face has no entries
        for col, face in enumerate(faces):
            for a, j in enumerate(face, start=1):
                sub = tuple(x for x in face if x != j)
                row = index[size - 1].get(sub)
                if row is None:
                    raise InternalInconsistencyError(
                        f"face {sub} missing below {face}; subset complex not closed")
                mono = mdeg_sub(modules[size][col], modules[size - 1][row])
                _entry(ring, diff[col], row, (-1) ** (a + 1), mono)
        diffs.append(diff)
    return FreeComplex(ring, modules, diffs, labels)


def _all_subsets(r: int):
    return [list(combinations(range(r), size)) for size in range(r + 1)]


def taylor_complex(ideal: MonomialIdeal) -> FreeComplex:
    """Taylor complex of S/I on the minimal generators, over S."""
    return _subset_complex(MonomialIdeal(ideal.num_vars, ideal.var_names, ()),
                           ideal.generators, _all_subsets(ideal.num_generators))


def scarf_faces(ideal: MonomialIdeal):
    """Subsets of the generators whose lcm differs from every other subset's.

    J is Scarf exactly when J = A(m), the atoms below an element m of L_I,
    and every atom j of J is essential: the join of J minus j is not m.  If J
    is Scarf, A(m_J) also has lcm m_J, so it is J, and J minus j has another
    lcm.  If J = A(m) has only essential atoms, a K with m_K = m lies in J,
    and K missing some j would give m_K <= m_{J minus j} < m, so K = J.

    An atom is essential exactly when it holds a bit of m that no other atom
    of A(m) holds, so one pass over the atom sets A(m) in ``lattice_masks``
    finds every face; nothing is decoded and no 2^r table is built.
    """
    atoms = ideal.codec.atoms
    faces = []
    for below in ideal.lattice_masks.values():
        face = mask_subset(below)
        once = twice = 0  # the bits held by at least one, two atoms of the face
        for i in face:
            twice |= once & atoms[i]
            once |= atoms[i]
        if all(atoms[i] & ~twice for i in face):
            faces.append(face)
    faces.sort(key=lambda f: (len(f), f))
    return faces


def scarf_complex(ideal: MonomialIdeal) -> FreeComplex:
    """Subcomplex of the Taylor complex on the Scarf faces."""
    faces = scarf_faces(ideal)
    top = max((len(f) for f in faces), default=0)
    by_size = [[f for f in faces if len(f) == size] for size in range(top + 1)]
    return _subset_complex(MonomialIdeal(ideal.num_vars, ideal.var_names, ()),
                           ideal.generators, by_size)


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """True iff all subset lcms are distinct, i.e. the Taylor resolution is
    minimal: exactly when L_I, its bottom 0 included, has 2^r elements."""
    return len(ideal.lattice_masks) == 1 << ideal.num_generators


def koszul_complex(ring: MonomialIdeal) -> FreeComplex:
    """Exterior-algebra Koszul complex on the variables of the ring: the
    subset complex of x_1..x_n over the ring, so

    d(e_{i_1} ^ .. ^ e_{i_k}) = sum_a (-1)^(a+1) x_{i_a} (wedge omitting i_a),
    indices strictly increasing.
    """
    n = ring.num_vars
    units = [tuple(1 if k == v else 0 for k in range(n)) for v in range(n)]
    return _subset_complex(ring, units, _all_subsets(n))


def alive_cells(box: Box, g: Multidegree, ok) -> list:
    """Codes of the cells g + s of ``box`` with ok(code of s): the cells
    where a generator of multidegree g is alive, when ok(s) says that s is
    standard.  A g that is not <= the bound has no cell.

    ``ok`` must hold at every divisor of a cell where it holds, as it does for
    standard monomials, so the walk extends s one coordinate at a time and
    stops coordinate k at the first exponent whose prefix (s_1..s_k, 0..0)
    fails ``ok``.  A prefix and its zero padding have one code, and raising
    coordinate k adds ``box.strides[k]``.  Each call of ``ok`` either finds a
    new prefix or ends its prefix's coordinate, so the walk costs at most
    n + 1 calls per cell returned.
    """
    base = box.code(g)
    if base is None or not ok(0):
        return []
    shifts = [0]
    for stride, room in zip(box.strides, mdeg_sub(box.bound, g)):
        longer = []
        for s in shifts:
            longer.append(s)
            for _ in range(room):
                s += stride
                if not ok(s):
                    break
                longer.append(s)
        shifts = longer
    return [base + s for s in shifts] if base else shifts


def standard_monomials(ring: MonomialIdeal, box: Box) -> set:
    """Codes of the cells s of ``box`` with x^s outside the ideal ``ring``:
    the alive cells of the zero generator, so ``ring.kills`` runs once per
    standard cell and once per cell on the frontier, not on the whole box."""
    return set(alive_cells(box, zero_mdeg(len(box.bound)), lambda s: not ring.kills(box.decode[s])))


def alive_index(module, box: Box, standard: set) -> dict:
    """{cell code: indices c of module, ascending, with module[c] | j and j -
    module[c] standard, j the cell}: ``alive_basis`` for every cell of ``box``
    at once, keyed by ``box`` code (``box.decode`` gives the multidegree).

    ``standard`` is ``standard_monomials(ring, box)`` of the module's ring,
    the one place the ring enters.  Each generator walks its own alive cells
    (``alive_cells``), so the cost is proportional to the (generator, alive
    cell) pairs, not to |box| x |module|.
    """
    index = {}
    ok = standard.__contains__
    for c, g in enumerate(module):
        for j in alive_cells(box, g, ok):
            index.setdefault(j, []).append(c)
    return index


def alive_basis(C: FreeComplex, i: int, j: Multidegree):
    """Generator indices of modules[i] contributing to the component at j."""
    if not 0 <= i <= C.top_degree:
        return []
    ring = C.ring
    return [c for c, deg in enumerate(C.modules[i])
            if divides(deg, j) and not ring.kills(mdeg_sub(j, deg))]


def homology(C: FreeComplex, bound: Multidegree, char: int | None = None):
    """Dimensions of H_i(C) in every multidegree <= bound.

    Returns {i: {multidegree: dim}} with zero dimensions omitted.  The cells
    are the codes of ``Box(bound)``, in its (total degree, lex) order, and a
    multidegree is decoded only for a key of the result.  The alive bases
    come from one code-keyed ``alive_index`` per module, built once per call
    at a cost of (generator, standard cell) pairs, or read from
    ``C.alive_memo`` when the resolver left the indexes for this bound.  At
    each cell the smaller side of the matrix of d_i is ranked: the alive
    columns of ``C.diffs[i]`` over the alive rows (the transpose, so the rank
    is the same), or, where there are more alive columns than alive rows, the
    alive rows over the alive columns.  So ``rank_of`` never gets more vectors
    than columns.  Each column and each row of each d_i is packed once per
    call (``pack`` and ``pack_rows``), and a cell restricts the packed
    vectors of its side with one mask of the other side's alive indices
    (``support`` and ``restrict``).
    """
    if char is None:
        char = C.char
    box = Box(bound)
    indexes = C.alive_memo.get(box.bound)
    if indexes is None:
        standard = standard_monomials(C.ring, box)
        indexes = [alive_index(module, box, standard) for module in C.modules]
    top = C.top_degree
    packed_cols = [[pack(column, char) for column in diff] for diff in C.diffs]
    packed_rows = [[]] + [pack_rows(C.diffs[i], len(C.modules[i - 1]), char)
                          for i in range(1, top + 1)]
    result = {i: {} for i in range(top + 1)}
    for j in box.codes:
        alive = [index.get(j, ()) for index in indexes]
        ranks = [0] * (top + 2)
        for i in range(1, top + 1):
            cols, rows = alive[i], alive[i - 1]
            if cols and rows:
                if len(cols) > len(rows):
                    side, other, vectors = rows, cols, packed_rows[i]
                else:
                    side, other, vectors = cols, rows, packed_cols[i]
                keep = support(other, char)
                ranks[i] = rank_of([restrict(vectors[k], keep) for k in side], len(other), char)
        for i in range(top + 1):
            if d := len(alive[i]) - ranks[i] - ranks[i + 1]:
                result[i][box.decode[j]] = d
    return result


def _unit_entries(C: FreeComplex):
    for i in range(1, len(C.modules)):
        for r, c, s in sorted((r, c, s) for c, column in enumerate(C.diffs[i])
                              for r, s in column.items()):
            if s and C.modules[i][c] == C.modules[i - 1][r]:
                yield i, r, c, s


def minimize(C: FreeComplex) -> FreeComplex:
    """Cancel unit entries (scalar entries between equal multidegrees) until none
    remain; the result is homotopy equivalent with ranks the graded Betti numbers."""
    modules = [list(m) for m in C.modules]
    diffs = [[dict(column) for column in d] for d in C.diffs]
    char = C.char
    while True:
        hit = next(_unit_entries(FreeComplex(C.ring, modules, diffs, None, char)), None)
        if hit is None:
            break
        i, r, c, u = hit
        d = diffs[i]
        col_of = {rr: s for rr, s in d[c].items() if rr != r}
        row_of = {cc: column.pop(r) for cc, column in enumerate(d) if cc != c and r in column}
        for cc, b in row_of.items():
            column = d[cc]
            for rr, a in col_of.items():
                if char:
                    val = (column.get(rr, 0) - a * b * pow(u, -1, char)) % char
                else:
                    val = column.get(rr, 0) - Fraction(a * b, u)
                    if val.denominator == 1:
                        val = int(val)
                if val:
                    column[rr] = val
                else:
                    column.pop(rr, None)
        # drop generator c in degree i and r in degree i-1 with their columns,
        # and renumber the rows of d_i past r and of d_{i+1} past c
        del modules[i][c], d[c]
        del modules[i - 1][r], diffs[i - 1][r]
        for k, dead in ((i, r), (i + 1, c)):
            if k < len(diffs):
                diffs[k] = [{rr - (rr > dead): s for rr, s in column.items() if rr != dead}
                            for column in diffs[k]]
    while len(modules) > 1 and not modules[-1]:
        modules.pop()
        diffs.pop()
    return FreeComplex(C.ring, modules, diffs, None, char)
