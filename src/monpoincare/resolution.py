"""Minimal free resolution of the residue field over R = S/I, Golod
certificates, the Koszul homology dimensions of R (an oracle), and the
Eagon-style resolution for generic ideals.

The resolution is built degree by degree: in each multidegree of a fixed box
the kernel of the previous differential is an exact k-linear computation, and
the next free module covers a minimal generating set of that kernel (kernel
vectors reduced against monomial shifts of the generators already chosen).

The denominator Q of the Poincare series is a polynomial supported on
L_I minus 0 with t-degree <= deg m_I.  ``series.denominator`` computes it
from the lcm lattice without resolving anything; the Poincare series in any
box and the deviations follow from Q by series division.  The Golod
verdict (``is_golod_truncated``) compares Q with the Golod denominator, which
comes from the Betti numbers of S/I that ``series.betti_numbers`` reads off
the same lattice; the Koszul homology of R is computed only as their oracle.
A tmax above deg m_I changes nothing, and the Golod verdict is exact once
tmax >= deg m_I.  The resolution here is the independent oracle of Q:
resolved in the slack box m_I + (1,..,1) under --check, its Betti numbers
must be those of P = prod(1+t*y_i)/Q there.  The --check compares P, and no
Q is read off the resolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    Box,
    InputError,
    InternalInconsistencyError,
    MonomialIdeal,
    Multidegree,
    divides,
    is_generic,
    lcm_of_subset,
    mdeg_add,
    mdeg_sub,
    total_degree,
    unit_mdeg,
    zero_mdeg,
)
from .complexes import (
    FreeComplex,
    _entry,
    alive_basis,
    alive_cells,
    alive_index,
    homology,
    koszul_complex,
    scarf_faces,
    standard_monomials,
)
from .linalg import EchelonSpace, kernel_basis, pack, rank_of, restrict, support, unpack
from .series import BigradedSeries, betti_numbers, denominator, series_from_terms


@dataclass
class ResidueFieldResolution:
    """Minimal multigraded free resolution of k over R = S/I, within (tmax,
    bound); I is ``complex.ring``."""

    tmax: int
    bound: Multidegree
    complex: FreeComplex

    def betti(self) -> dict:
        """dim Tor_i^R(k,k)_j as {(i, j): dimension}."""
        table = {}
        for i, module in enumerate(self.complex.modules):
            for deg in module:
                table[(i, deg)] = table.get((i, deg), 0) + 1
        return table

    def poincare_series(self) -> BigradedSeries:
        return series_from_terms(self.complex.ring.num_vars, self.tmax, self.bound,
                                 [(i, j, c) for (i, j), c in self.betti().items()])


def resolve_residue_field(ideal: MonomialIdeal, tmax: int, bound: Multidegree | None = None,
                          char: int = 0) -> ResidueFieldResolution:
    """Resolve k over R = S/I up to homological degree tmax in multidegrees <= bound.

    The box must contain m_I, otherwise later denominator extraction would be
    unsound.  Ranks of the result are exactly dim Tor_i^R(k,k)_j for j in the
    box; generators outside the box are not tracked.

    Every cell of the box is one int, its ``Box`` code, and the cells are
    visited in the box's (total degree, lex) order.  The standard cells, the
    alive indexes and the ranks are keyed by code; a multidegree is decoded
    only for a chosen generator's degree and for an error message.  Each free
    module carries an ``alive_index`` over the box: the cells where its
    generators are alive, built once at a cost of (generator, standard cell)
    pairs.  At step k the index of modules[k-1] gives the columns and that of
    modules[k-2] the rows of the cell's matrix; the index of modules[k] is
    filled as its generators are chosen (``alive_cells`` from the chosen
    cell), so before choosing at a cell it lists the earlier generators that
    reach it.  The indexes are left in ``complex.alive_memo[bound]`` for
    ``homology`` over the same box.

    No matrix is ranked.  rank_prev[j] is the rank of d_{k-1} at cell j (1 at
    standard j != 0 for d_1), so z = #columns - rank_prev[j] is the kernel
    dimension of d_{k-1} at j, and once step k covers that kernel it is the
    rank of d_k at j: the Euler-characteristic count (Avramov, "Infinite free
    resolutions", 1998, sections 1-2).  z = 0 skips the cell, and so does a
    span of the earlier generators alive at j (restricted to its columns)
    that reaches dimension z.  Only otherwise is ``kernel_basis`` of the
    cell's matrix computed; a kernel of dimension other than z raises
    InternalInconsistencyError naming the step and the multidegree.  Its
    vectors that enlarge the span become new generators until the span
    reaches z, as a greedy pass over the whole kernel basis would choose.

    Every column is packed once.  The columns of d_1 are ``pack``-ed at the
    start; every later one is a kernel vector, which ``kernel_basis`` returns
    packed over the indices of the whole previous module, and a chosen
    generator keeps it (``unpack`` gives its ``diffs`` entry) through the
    next step.  The cell's matrix is the packed columns of d_{k-1} at its
    alive columns, each restricted with one mask of its alive rows; the span
    takes the earlier generators' packed columns, each restricted with one
    mask of the alive columns, in one ``extend`` call (``support`` and
    ``restrict``).  The alive columns are ascending, so the module's indices
    keep their order: every kernel vector, pivot and generator is the one the
    cell's own positions would give.
    """
    n = ideal.num_vars
    top = ideal.top_lcm()
    if bound is None:
        bound = mdeg_add(top, (1,) * n)
    bound = tuple(bound)
    if not divides(top, bound):
        raise InputError(f"multidegree bound {bound} must dominate m_I = {top}")
    if tmax < 0:
        raise InputError("tmax must be non-negative")
    box = Box(bound)
    standard = standard_monomials(ideal, box)
    is_standard = standard.__contains__

    modules = [[zero_mdeg(n)]]
    diffs = [[{}]]
    if tmax >= 1:
        # units outside the box belong to variables no generator uses; their
        # (split-off polynomial) contribution cancels against the numerator
        gens1 = [u for u in (unit_mdeg(n, i) for i in range(n)) if box.code(u) in standard]
        modules.append(gens1)
        diffs.append([{0: 1} for _ in gens1])
    alive = [alive_index(module, box, standard) for module in modules]
    rank_prev = {j: 1 for j in standard if j}  # the rank of d_1 at j; code 0 is the zero cell
    prev = [pack(column, char) for column in diffs[-1]]  # the packed columns of d_1

    for step in range(2, tmax + 1):
        cols_at, rows_at = alive[step - 1], alive[step - 2]
        # chosen generators: multidegree, column {prev index: scalar}, packed column
        degs, vecs, packed = [], [], []
        index, rank = {}, {}  # cell -> generators alive there, the rank of d_step there
        for j in box.codes:
            cols = cols_at.get(j)
            if not cols:
                continue
            rank[j] = z = len(cols) - rank_prev.get(j, 0)
            if not z:
                continue
            # the earlier generators alive at j; those dividing j with a
            # non-standard cofactor map to zero here and are not in the index,
            # and entries on columns dead at j drop out
            span = EchelonSpace(char)
            if earlier := index.get(j):
                keep = support(cols, char)
                span.extend((restrict(packed[w], keep) for w in earlier), z)
                if span.dim == z:
                    continue
            rows = rows_at.get(j, ())
            keep = support(rows, char)
            kernel = kernel_basis({c: restrict(prev[c], keep) for c in cols}, len(rows), char)
            deg = box.decode[j]
            if len(kernel) != z:
                raise InternalInconsistencyError(
                    f"step {step} at multidegree {deg}: the kernel has "
                    f"dimension {len(kernel)}, exactness counts {z}")
            new = []
            for v in kernel:
                if span.add(v):
                    new.append(len(vecs))
                    degs.append(deg)
                    vecs.append(unpack(v))
                    packed.append(v)
                    if span.dim == z:
                        break
            for cell in alive_cells(box, deg, is_standard):
                index.setdefault(cell, []).extend(new)
        modules.append(degs)
        alive.append(index)
        rank_prev, prev = rank, packed
        diffs.append(vecs)

    cpx = FreeComplex(ideal, modules, diffs, None, char)
    cpx.alive_memo[bound] = alive
    return ResidueFieldResolution(tmax, bound, cpx)


def _wedge(c1: dict, j1: Multidegree, c2: dict, j2: Multidegree, ideal: MonomialIdeal) -> dict:
    """Exterior product of two Koszul component vectors, reduced over S/ideal."""
    out = {}
    target = mdeg_add(j1, j2)
    for s1, a in c1.items():
        for s2, b in c2.items():
            if set(s1) & set(s2):
                continue
            union = tuple(sorted(s1 + s2))
            mono = mdeg_sub(target, tuple(1 if v in union else 0 for v in range(ideal.num_vars)))
            if ideal.kills(mono):
                continue
            new = out.get(union, 0) + a * b * _perm_sign(s1 + s2)
            if new:
                out[union] = new
            else:
                del out[union]
    return out


def koszul_homology_dims(ideal: MonomialIdeal, char: int = 0) -> dict:
    """dim H_i(Koszul complex over R)_j for j <= m_I as {(i, j): dim}: by Tor
    symmetry the Betti numbers of S/I, so the oracle of ``series.betti_numbers``."""
    table = homology(koszul_complex(ideal), ideal.top_lcm(), char)
    return {(i, j): d for i, dims in table.items() for j, d in dims.items()}


def _require_in_m_squared(ideal: MonomialIdeal):
    """The Golod tests here are stated for I inside m^2: refuse a linear generator."""
    for g in ideal.generators:
        if total_degree(g) == 1:
            raise InputError(f"Golod tests need I in m^2; {ideal.generator_str(g)} is linear")


def golod_denominator(ideal: MonomialIdeal, char: int = 0) -> BigradedSeries:
    """1 - sum over i >= 1 of beta_{i,j} y^j t^(i+1), from the Betti numbers of
    ``series.betti_numbers``: the denominator of the Poincare series when R is
    Golod.  It lies in box m_I up to t^deg(m_I) for I inside m^2 only."""
    _require_in_m_squared(ideal)
    top = ideal.top_lcm()
    terms = [(0, zero_mdeg(ideal.num_vars), 1)]
    terms += [(i + 1, j, -b) for (i, j), b in betti_numbers(ideal, char).items() if i >= 1]
    return series_from_terms(ideal.num_vars, total_degree(top), top, terms)


def is_golod_truncated(ideal: MonomialIdeal, tmax: int, char: int = 0,
                       Q: BigradedSeries | None = None,
                       Qg: BigradedSeries | None = None) -> bool:
    """Is R Golod up to t-degree tmax: does Q agree with golod_denominator
    through t^tmax?  Since P = prod(1+t*y_i)/Q, this is the same as P agreeing
    with prod(1+t*y_i)/golod_denominator mod t^(tmax+1).

    Both denominators live in box m_I with t-degree <= deg m_I, so this is
    Q == golod_denominator through t^min(tmax, deg m_I): exact Golodness when
    tmax >= deg m_I, and a tmax above deg m_I changes nothing.  Q is the
    denominator and Qg ``golod_denominator(ideal, char=char)`` if the caller
    already has them; otherwise both come from the lcm lattice, with no
    resolution and no complex.  This is the package's only Golod certificate
    for arbitrary I; a linear generator raises InputError.
    """
    _require_in_m_squared(ideal)
    if tmax < 2:
        raise InputError("a Golod certificate needs tmax >= 2")
    if Q is None:
        Q = denominator(ideal, char=char)
    if Qg is None:
        Qg = golod_denominator(ideal, char=char)
    top = ideal.top_lcm()
    T = min(tmax, total_degree(top))
    return Q.restrict(T, top) == Qg.restrict(T, top)


def is_golod_generic(ideal: MonomialIdeal) -> bool:
    """Golod test for generic ideals inside m^2: no Scarf face may split into
    two parts with coprime lcms (equivalently m_A * m_B = m_{A u B}).

    The lcm of a part is the OR of its generators' masks in
    ``ideal.codec.atoms``, and two parts have coprime lcms iff no mask of one
    meets a mask of the other.  So a face splits iff the part reached from
    its first generator, through masks that meet, leaves some generator out.
    No 2^r subset table is built.
    """
    _require_in_m_squared(ideal)
    if not is_generic(ideal):
        raise InputError("criterion only applies to generic ideals")
    atoms = ideal.codec.atoms
    for face in filter(None, scarf_faces(ideal)):
        reach, rest = atoms[face[0]], [atoms[i] for i in face[1:]]
        while rest:
            near = [m for m in rest if m & reach]
            if not near:
                return False  # m_reach and the lcm of the rest are coprime
            rest = [m for m in rest if not m & reach]
            for m in near:
                reach |= m
    return True


def _perm_sign(seq) -> int:
    """The sign of the permutation sorting ``seq``: for two increasing tuples
    A and B, ``_perm_sign(A + B)`` is the sign of merging them."""
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                     if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


def _scarf_cycle_reps(ideal: MonomialIdeal, K: FreeComplex, faces, m_face: dict,
                      char: int) -> dict:
    """One representative cycle per nonempty Scarf face J, spanning the
    one-dimensional H_{|J|}(K)_{m_J}; ``m_face`` maps each face to m_J.

    Each generator of a Scarf face strictly attains the face lcm in at least
    one variable (otherwise dropping it would leave the lcm unchanged), and a
    variable is strictly attained by at most one generator.  A representative
    is (m_J / x_T) e_T for such a set T of attainment variables, signed by the
    permutation sorting them into generator order.  The differential formulas
    force the chain-level identities

        z_A ^ z_B = perm_sign(A + B) * (m_A m_B / m_{A u B}) * z_{A u B}

    for disjoint faces with Scarf union, and z_A ^ z_B = 0 otherwise; a greedy
    choice of attainment variables can violate them, so the (small) space of
    choices is searched with all product identities checked explicitly.
    """
    gens = ideal.generators
    n = ideal.num_vars
    face_set = set(faces)

    candidates = {}
    for face in faces:
        m = m_face[face]
        attain = []
        for g_idx in face:
            g = gens[g_idx]
            s = [v for v in range(n)
                 if g[v] == m[v] > 0
                 and all(gens[h][v] < g[v] for h in face if h != g_idx)]
            if not s:
                raise InternalInconsistencyError(
                    f"generator {g} never strictly attains {m}; face {face} is not Scarf")
            attain.append(s)
        options = []
        seen = set()
        for combo in product(*attain):
            wedge = tuple(sorted(combo))
            if wedge not in seen:
                seen.add(wedge)
                options.append({wedge: _perm_sign(combo)})
        candidates[face] = options

    order = sorted(faces, key=lambda f: (len(f), f))
    assigned = {}

    def pair_identity_holds(A, B):
        lhs = _wedge(assigned[A], m_face[A], assigned[B], m_face[B], ideal)
        target = {}
        if not set(A) & set(B):
            union = tuple(sorted(A + B))
            if union in face_set:
                if union not in assigned:
                    return True  # rechecked when the union is assigned
                j = mdeg_add(m_face[A], m_face[B])
                ms = _perm_sign(A + B)
                for w, c in assigned[union].items():
                    mono = mdeg_sub(j, tuple(1 if v in w else 0 for v in range(n)))
                    if not ideal.kills(mono):
                        target[w] = ms * c
        return lhs == target

    if not _assign_cycles(0, order, candidates, assigned, pair_identity_holds):
        raise InternalInconsistencyError(
            "no coherent system of Scarf cycle representatives exists")
    for face, cycle in assigned.items():
        _verify_class_rep(K, len(face), m_face[face], cycle, char)
    return assigned


def _assign_cycles(k, order, candidates, assigned, pair_identity_holds) -> bool:
    """Backtracking search extending ``assigned`` to the faces order[k:], each
    candidate checked against its bipartitions and the faces before it.  A
    module-level function, so the recursion holds no closure cell that would
    keep the ring and the candidate tables in a reference cycle."""
    if k == len(order):
        return True
    face = order[k]
    lower = [(A, tuple(x for x in face if x not in A))
             for size in range(1, len(face))
             for A in combinations(face, size)
             if face[0] in A]  # each unordered bipartition once
    for cand in candidates[face]:
        assigned[face] = cand
        ok = all(pair_identity_holds(A, B) for A, B in lower)
        if ok:
            ok = all(pair_identity_holds(face, g) for g in order[:k])
        if ok and _assign_cycles(k + 1, order, candidates, assigned, pair_identity_holds):
            return True
        del assigned[face]
    return False


def _verify_class_rep(K: FreeComplex, i: int, j: Multidegree, cycle: dict, char: int):
    """Check a proposed cycle is alive, closed, and spans the 1-dim H_i(K)_j,
    ranking the sparse columns ``K.diffs[i]`` of d_i over the alive rows."""
    cols = alive_basis(K, i, j)
    rows, alive = set(alive_basis(K, i - 1, j)), set(cols)
    d_i = {c: {r: s for r, s in K.diffs[i][c].items() if r in rows} for c in cols}
    span = EchelonSpace(char)  # the boundaries
    for c in alive_basis(K, i + 1, j):
        span.add({r: s for r, s in K.diffs[i + 1][c].items() if r in alive})
    dim = len(cols) - rank_of(list(d_i.values()), len(rows), char) - span.dim
    if dim != 1:
        raise InternalInconsistencyError(
            f"H_{i}(K)_{j} has dimension {dim}, expected 1 for a Scarf face")
    gen = {K.labels[i][c]: c for c in cols}
    vec, image = {}, {}  # the cycle over the alive columns, and its d_i
    for wedge, coeff in cycle.items():
        if wedge not in gen:
            raise InternalInconsistencyError(f"representative at {j} is zero over the ring")
        vec[gen[wedge]] = coeff
        for r, s in d_i[gen[wedge]].items():
            image[r] = image.get(r, 0) + coeff * s
    if any(x % char if char else x for x in image.values()):
        raise InternalInconsistencyError(f"representative at {j} is not a cycle")
    if span.contains(vec):
        raise InternalInconsistencyError(f"representative at {j} is a boundary")


def eagon_resolution(ideal: MonomialIdeal, imax: int, char: int = 0) -> FreeComplex:
    """Free resolution of k over R for generic I, built from the Koszul complex
    and tensor words in the nonempty Scarf faces.

    Generators in degree i are pairs (S, (L_1..L_l)) with S a wedge of
    variables and L_k nonempty Scarf faces, |S| + sum(|L_k|+1) = i.  The
    differential combines the Koszul differential, a chosen cycle z_{L_1}
    multiplying into the wedge factor, and merges of adjacent faces weighted
    by m_{L_{k}} m_{L_{k+1}} / m_{L_k u L_{k+1}} when the union is again a
    Scarf face.
    """
    if imax < 0:
        raise InputError("imax must be non-negative")
    if not is_generic(ideal):
        raise InputError("the Eagon construction here requires a generic ideal")
    n = ideal.num_vars
    K = koszul_complex(ideal)
    faces = [f for f in scarf_faces(ideal) if f]
    face_set = set(faces)
    m_face = {f: lcm_of_subset(ideal, f) for f in faces}
    z = _scarf_cycle_reps(ideal, K, faces, m_face, char)

    chains_by_weight = {0: [()]}
    for w in range(1, imax + 1):
        chains = []
        for f in faces:
            wf = len(f) + 1
            if wf <= w:
                chains.extend((f,) + tail for tail in chains_by_weight[w - wf])
        chains_by_weight[w] = chains

    def chain_mdeg(chain):
        out = zero_mdeg(n)
        for f in chain:
            out = mdeg_add(out, m_face[f])
        return out

    modules, labels = [], []
    index = []
    for i in range(imax + 1):
        gens = []
        for ksize in range(min(i, n) + 1):
            for chain in chains_by_weight.get(i - ksize, []):
                for S in combinations(range(n), ksize):
                    gens.append((S, chain))
        wedge_part = {g: tuple(1 if v in g[0] else 0 for v in range(n)) for g in gens}
        modules.append([mdeg_add(wedge_part[g], chain_mdeg(g[1])) for g in gens])
        labels.append(gens)
        index.append({g: k for k, g in enumerate(gens)})

    diffs = [[{} for _ in module] for module in modules]
    for i in range(1, imax + 1):
        for col, (S, chain) in enumerate(labels[i]):
            column, col_mdeg = diffs[i][col], modules[i][col]
            # Koszul differential on the wedge factor
            for a, v in enumerate(S, start=1):
                target = (tuple(x for x in S if x != v), chain)
                row = index[i - 1][target]
                _entry(ideal, column, row, (-1) ** (a + 1),
                       mdeg_sub(col_mdeg, modules[i - 1][row]))
            if not chain:
                continue
            sgn_S = (-1) ** len(S)
            # z-term: the first face becomes a Koszul cycle wedged into S
            first = chain[0]
            for T, coeff in z[first].items():
                if set(S) & set(T):
                    continue
                target = (tuple(sorted(S + T)), chain[1:])
                row = index[i - 1][target]
                _entry(ideal, column, row, sgn_S * _perm_sign(S + T) * coeff,
                       mdeg_sub(col_mdeg, modules[i - 1][row]))
            # merges of adjacent faces; the sign exponent is the summed
            # homological weight of the factors up to and including the first
            # merged one
            weight = len(chain[0]) + 1
            for q in range(1, len(chain)):
                A, B = chain[q - 1], chain[q]
                if not set(A) & set(B):
                    union = tuple(sorted(A + B))
                    if union in face_set:
                        target = (S, chain[:q - 1] + (union,) + chain[q + 1:])
                        row = index[i - 1][target]
                        _entry(ideal, column, row,
                               sgn_S * ((-1) ** weight) * _perm_sign(A + B),
                               mdeg_sub(col_mdeg, modules[i - 1][row]))
                weight += len(B) + 1
    return FreeComplex(ideal, modules, diffs, labels, char)
