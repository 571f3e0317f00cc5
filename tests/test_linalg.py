import random

from monpoincare.linalg import EchelonSpace, kernel_basis, rank_of


def test_echelon_membership():
    space = EchelonSpace(3)
    assert space.add([1, 2, 3])
    assert space.add([0, 1, 1])
    assert not space.add([1, 3, 4])  # sum of the two
    assert space.dim == 2
    assert space.contains([2, 5, 7])
    assert not space.contains([0, 0, 1])


def test_kernel_basis_simple():
    # x + y + z = 0 has a 2-dimensional kernel
    basis = kernel_basis([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_of_zero_matrix():
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]


def test_rank_and_kernel_random_consistency():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        r = rank_of(M, n)
        ker = kernel_basis(M, n)
        assert r + len(ker) == n  # rank-nullity
        for v in ker:
            assert all(sum(row[i] * v[i] for i in range(n)) == 0 for row in M)


def test_kernel_mod_p():
    # over GF(2) the all-ones vector kills [1, 1]
    ker = kernel_basis([[1, 1]], 2, char=2)
    assert ker == [[1, 1]]
    rng = random.Random(5)
    for p in (2, 3, 7):
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
            ker = kernel_basis(M, n, char=p)
            assert rank_of(M, n, char=p) + len(ker) == n
            for v in ker:
                assert all(sum(row[i] * v[i] for i in range(n)) % p == 0 for row in M)
