import random
from math import gcd

from monpoincare.linalg import (EchelonSpace, kernel_basis, pack, pack_rows, rank_of, restrict,
                                support, unpack)

from helpers import DenseEchelonSpace, dense_kernel_basis, dense_rank_of


def _as_dict(v):
    """A dense vector as a sparse {column: entry} row."""
    return {c: x for c, x in enumerate(v) if x}


def _columns(M, n, char, labels=None):
    """The columns of the row matrix M as kernel_basis takes them: {label:
    column packed over the rows}, labels ascending (0..n-1 by default)."""
    labels = labels or range(n)
    return {labels[c]: pack([row[c] for row in M], char) for c in range(n)}


def _dense_kernel(M, n, char, labels=None):
    """The dense oracle's kernel of M in kernel_basis's form: each vector
    packed over the labels."""
    labels = labels or range(n)
    return [pack({labels[c]: x for c, x in enumerate(v) if x}, char)
            for v in dense_kernel_basis(M, n, char)]


def test_echelon_membership():
    space = EchelonSpace()
    assert space.add([1, 2, 3])
    assert space.add([0, 1, 1])
    assert not space.add([1, 3, 4])  # sum of the two
    assert space.dim == 2
    assert space.contains([2, 5, 7])
    assert not space.contains([0, 0, 1])


def test_kernel_basis_simple():
    # x + y + z = 0 has a 2-dimensional kernel
    basis = kernel_basis({0: {0: 1}, 1: {0: 1}, 2: {0: 1}}, 1)
    assert basis == [{0: 1, 1: -1}, {0: 1, 2: -1}]  # first entry positive
    for v in basis:
        assert sum(v.values()) == 0


def test_kernel_of_zero_matrix():
    # no rows, and one zero row: each column is a kernel vector by itself
    for nrows in (0, 1):
        assert kernel_basis({0: {}, 1: {}}, nrows) == [{0: 1}, {1: 1}]
        assert kernel_basis({3: 0, 8: 0}, nrows, 2) == [1 << 3, 1 << 8]
    assert kernel_basis({}, 4) == []


def test_rank_and_kernel_random_consistency():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        r = rank_of(M, n)
        ker = kernel_basis(_columns(M, n, 0), m)
        assert r + len(ker) == n  # rank-nullity
        for v in ker:
            assert all(v.values()) and all(0 <= c < n for c in v)
            assert all(sum(row[c] * x for c, x in v.items()) == 0 for row in M)


def test_kernel_mod_p():
    # over GF(2) the all-ones vector kills [1, 1]; a kernel vector is an int
    ker = kernel_basis({0: 1, 1: 1}, 1, char=2)
    assert ker == [0b11] and unpack(ker[0]) == {0: 1, 1: 1}
    rng = random.Random(5)
    for p in (2, 3, 7):
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
            ker = [unpack(v) for v in kernel_basis(_columns(M, n, p), m, char=p)]
            assert rank_of(M, n, char=p) + len(ker) == n
            for v in ker:
                assert all(0 < x < p for x in v.values())
                assert all(sum(row[c] * x for c, x in v.items()) % p == 0 for row in M)


def _random_matrix(rng, sparse):
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    if sparse:
        return [[rng.choice((-1, 1)) if rng.random() < 0.3 else 0 for _ in range(n)]
                for _ in range(m)], n
    return [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n


def _with_zero_and_duplicate_columns(rng, M, n):
    """M with a column zeroed and a column copied onto another, each at
    random."""
    M = [list(row) for row in M]
    if rng.random() < 0.3:
        c = rng.randrange(n)
        for row in M:
            row[c] = 0
    if n > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        for row in M:
            row[b] = row[a]
    return M


def test_kernel_and_rank_match_the_dense_oracle():
    # the kernel vector of a dependent column, written through the earlier
    # independent columns, is unique, so the column kernel is identical to
    # the Fraction back-substitution's free-column basis (written sparsely
    # over the labels), not just the same space
    rng = random.Random(2024)
    for char in (0, 2, 3, 7):
        for sparse in (False, True):
            for _ in range(200):
                M, n = _random_matrix(rng, sparse)
                M = _with_zero_and_duplicate_columns(rng, M, n)
                labels = sorted(rng.sample(range(3 * n + 5), n)) if rng.random() < 0.5 else None
                expected = _dense_kernel(M, n, char, labels)
                assert kernel_basis(_columns(M, n, char, labels), len(M), char) == expected, \
                    (M, labels, char)
                rank = dense_rank_of(M, n, char)
                for rows in (M, [_as_dict(row) for row in M]):
                    assert rank_of(rows, n, char) == rank, (M, char)


def test_kernel_vectors_hold_only_their_nonzeros():
    # x_0 + .. + x_1999 = 0: each of the 1999 basis vectors is a multiple of
    # e_f - e_0, so a sparse basis holds 2 entries per vector, not 2000
    for char in (0, 2, 3):
        basis = [unpack(v) for v in kernel_basis({c: pack({0: 1}, char) for c in range(2000)},
                                                 1, char)]
        assert len(basis) == 1999
        assert all(len(v) == 2 for v in basis)
        last = {0: 1, 1999: -1} if char == 0 else {0: char - 1, 1999: 1}
        assert basis[-1] == last


def test_echelon_rows_stay_reduced():
    rng = random.Random(7)
    for char in (0, 2, 3, 7):
        for _ in range(100):
            M, n = _random_matrix(rng, rng.random() < 0.5)
            space = EchelonSpace(char)
            for row in M:
                space.add(row if rng.random() < 0.5 else dict(enumerate(row)))
            if char == 2:
                # forward echelon bitmasks: each row keyed by its lowest set
                # bit (so the keys are distinct pivots), inside the ncols
                # columns, one per unit of rank
                for low, row in space.rows.items():
                    assert row & -row == low and row >> n == 0
                assert space.dim == dense_rank_of(M, n, char)
            else:
                for c, row in space.rows.items():
                    assert min(row) == c and all(row.values())
                    assert all(c not in other for d, other in space.rows.items() if d != c)
                    if char:
                        assert row[c] == 1 and all(0 < x < char for x in row.values())
                    else:
                        assert row[c] > 0 and gcd(*row.values()) == 1
            for row in M:
                assert space.contains(row) and space.contains(dict(enumerate(row)))


def test_wide_gf2_matrices_match_the_dense_oracle():
    # 65 to 200 columns, so a bitmask row and a kernel vector over the column
    # labels span more than one machine word, and so does each packed column
    # of the transpose; entries in {-1, 0, 1}, where -1 is odd
    rng = random.Random(65)
    for _ in range(24):
        n = rng.randint(65, 200)
        m = rng.randint(1, 90)
        density = rng.choice((0.02, 0.05, 0.2))
        M = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        T = [list(col) for col in zip(*M)]
        assert kernel_basis(_columns(M, n, 2), m, 2) == _dense_kernel(M, n, 2), M
        assert kernel_basis(_columns(T, m, 2), n, 2) == _dense_kernel(T, m, 2), M
        rank = dense_rank_of(M, n, 2)
        dense = DenseEchelonSpace(n, 2)
        for row in M:
            dense.add(row)
        probes = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(4)]
        probes += [[sum(col) for col in zip(*rng.sample(M, rng.randint(1, m)))] for _ in range(4)]
        for rows in (M, [_as_dict(row) for row in M]):
            assert rank_of(rows, n, 2) == rank, M
            space = EchelonSpace(2)
            for row in rows:
                space.add(row)
            assert all(space.contains(row) for row in rows)
            for probe in probes:
                assert space.contains(probe) == dense.contains(probe), (M, probe)
                assert space.contains(_as_dict(probe)) == dense.contains(probe), (M, probe)


def test_packed_rows_restricted_to_columns_match_the_dense_oracle():
    # a row packed once and restricted to a column subset spans what the
    # submatrix on those columns spans, and restricting leaves it unchanged
    rng = random.Random(11)
    for char in (0, 2, 3, 7):
        for _ in range(100):
            M, n = _random_matrix(rng, rng.random() < 0.5)
            keep = sorted(rng.sample(range(n), rng.randint(0, n)))
            packed = [pack(row, char) for row in M]
            mask = support(keep, char)
            rows = [restrict(v, mask) for v in packed]
            rank = dense_rank_of([[row[c] for c in keep] for row in M], len(keep), char)
            assert rank_of(rows, len(keep), char) == rank, (M, keep, char)
            space = EchelonSpace(char)
            space.extend(rows, n)
            assert space.dim == rank and all(map(space.contains, rows))
            assert packed == [pack(row, char) for row in M]


def test_pack_rows_packs_the_transpose():
    # the rows of a matrix stored by columns, packed in one pass, are the
    # packed rows of the dense matrix
    rng = random.Random(13)
    for char in (0, 2, 3, 7):
        for _ in range(100):
            M, n = _random_matrix(rng, rng.random() < 0.5)
            columns = [_as_dict([row[c] for row in M]) for c in range(n)]
            assert pack_rows(columns, len(M), char) == [pack(row, char) for row in M], (M, char)


def test_extend_stops_reading_at_the_limit():
    read = []

    def unit_rows():
        for c in range(5):
            read.append(c)
            yield {c: 1}

    for char in (0, 2, 3):
        read.clear()
        space = EchelonSpace(char)
        space.extend(unit_rows(), 3)
        assert space.dim == 3 and read == [0, 1, 2]
