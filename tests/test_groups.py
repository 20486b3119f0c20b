"""Group arithmetic, primary decomposition, and the complement machinery."""

import contextlib
import random
import signal
import time
from itertools import combinations, product as iproduct
from math import gcd, prod

import numpy as np
import pytest

from gowerslab import groups
from gowerslab.errors import PostconditionError
from gowerslab.groups import (
    FinAbGroup,
    GroupElement,
    Homomorphism,
    Subgroup,
    _PresentedSubgroup,
    _subgroup_basis,
    complemented_enlarge,
    complemented_hull,
    complemented_shrink,
    find_complement,
    image,
    kernel,
    mtorsion_complemented_shrink,
    primary_decompose,
    quotient,
    smith_normal_form,
    verify_complement,
)


def closure_set(G, gens):
    return Subgroup.from_generators(G, gens).elements


# ---------------------------------------------------------------------------
# constructors refuse what is not an integer


@pytest.mark.parametrize("orders", [(2.5, 3), (2.0, 3), (True, 3), (np.float64(3.0),), ("3",)])
def test_group_orders_must_be_integers(orders):
    with pytest.raises(ValueError):
        FinAbGroup(orders)


@pytest.mark.parametrize("entry", [1.5, 1.0, True, np.float64(1.0)])
def test_homomorphism_entries_must_be_integers(entry):
    with pytest.raises(ValueError):
        Homomorphism(FinAbGroup((9,)), FinAbGroup((3,)), [[entry]])


@pytest.mark.parametrize("coord", [1.7, 1.0, True, np.float64(1.0), "1"])
def test_element_coords_must_be_integers(coord):
    with pytest.raises(ValueError):
        FinAbGroup((3,)).element((coord,))


def test_element_accepts_numpy_integers():
    x = FinAbGroup((3, 4)).element((np.int64(4), np.uint8(7)))
    assert x.coords == (1, 3) and all(type(c) is int for c in x.coords)


def test_constructors_accept_numpy_integers():
    G = FinAbGroup((np.int64(2), np.uint8(3)))
    assert G.orders == (2, 3) and all(type(m) is int for m in G.orders)
    h = Homomorphism(FinAbGroup((9,)), FinAbGroup((3,)), [[np.int32(4)]])
    assert h.matrix == ((1,),) and type(h.matrix[0][0]) is int


# ---------------------------------------------------------------------------
# primary decomposition


@pytest.mark.parametrize(
    "orders, chunks",
    [
        ((), ((),)),
        ((1,), ((1,),)),
        ((2,) * 10, ((2,) * 8, (2, 2))),
        ((4, 8, 9, 5), ((4, 8), (9, 5))),
        ((2, 300, 3, 1, 2), ((2,), (300,), (3, 1, 2))),
        ((257, 256), ((257,), (256,))),
    ],
)
def test_shift_index_matches_the_coordinate_formula(orders, chunks):
    # chunks of at most 256 elements read their add tables, a longer axis its residues
    G = FinAbGroup(orders)
    assert G.chunks == chunks
    X = G.coords_array
    h = np.arange(0, G.order, max(1, G.order // 97))
    assert np.array_equal(G.shift_index(h), (X[h][:, None] + X[None]) % G.moduli @ G.radix)
    assert G.shift_index(np.array([], dtype=np.int64)).shape == (0, G.order)


def test_primary_z12():
    dec = primary_decompose(FinAbGroup((12,)))
    assert dec.primes == (2, 3)
    assert dec.components[2].orders == (4,)
    assert dec.components[3].orders == (3,)


def test_primary_z7():
    dec = primary_decompose(FinAbGroup((7,)))
    assert dec.primes == (7,)
    assert dec.components[7].orders == (7,)


def test_primary_z6_z4_exhaustive_bijection():
    # oracle: the isomorphism is a bijection, checked on all 24 elements
    G = FinAbGroup((6, 4))
    dec = primary_decompose(G)
    assert dec.components[2].orders == (2, 4)
    assert dec.components[3].orders == (3,)
    images = set()
    for x in G.elements():
        y = dec.iso(x)
        images.add(y.coords)
        assert dec.iso_inv(y) == x
    assert len(images) == 24


def test_primary_split_embed_roundtrip():
    # every element of G is the sum of its components, each sent back alone through iso_inv
    G = FinAbGroup((6, 4))
    dec = primary_decompose(G)
    parts = dec.iso.images(G.coords_array)
    back = np.zeros_like(G.coords_array)
    for p in dec.primes:
        a, b = dec.slices[p]
        alone = np.zeros_like(parts)
        alone[:, a:b] = parts[:, a:b]
        back = (back + dec.iso_inv.images(alone)) % G.moduli
    assert np.array_equal(back, G.coords_array)


# ---------------------------------------------------------------------------
# kernel / image / quotient


def test_kernel_mod3_on_z6():
    h = Homomorphism(FinAbGroup((6,)), FinAbGroup((3,)), [[1]])
    assert {e.coords for e in kernel(h).elements} == {(0,), (3,)}


def test_image_doubling_on_z4():
    h = Homomorphism(FinAbGroup((4,)), FinAbGroup((4,)), [[2]])
    assert {e.coords for e in image(h).elements} == {(0,), (2,)}


def test_quotient_z3z27_by_z3_is_z27():
    G = FinAbGroup((3, 27))
    H = Subgroup.from_generators(G, [(1, 0)])
    q = quotient(G, H)
    # oracle: enumerate cosets directly
    cosets = {frozenset((x + h).coords for h in H.elements) for x in G.elements()}
    assert len(cosets) == 27
    assert q.group.order == 27
    assert tuple(sorted(q.group.orders)) == (27,)
    # distinct cosets map to distinct images
    assert len({q.projection(x).coords for x in G.elements()}) == 27


def test_quotient_projection_kernel_and_surjectivity():
    G = FinAbGroup((4, 6))
    H = Subgroup.from_generators(G, [(2, 3)])
    q = quotient(G, H)
    assert kernel(q.projection).elements == H.elements
    assert q.projection.is_surjective()
    assert q.group.order * H.order == G.order


def test_quotient_rejects_foreign_subgroup():
    G = FinAbGroup((4,))
    H = Subgroup.from_generators(FinAbGroup((2,)), [(1,)])
    with pytest.raises(ValueError):
        quotient(G, H)


# ---------------------------------------------------------------------------
# Smith normal form


def bareiss_det(mat):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def check_snf(M):
    """U M V = S with U, V unimodular and S diagonal, d_i >= 0, d_i | d_(i+1)."""
    r, c = len(M), len(M[0])
    U, S, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == S
    assert abs(bareiss_det(U)) == 1
    assert abs(bareiss_det(V)) == 1
    diag = [S[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return diag


@pytest.mark.parametrize("seed", range(12))
def test_snf_properties(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    c = rng.randint(1, 5)
    check_snf([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])


def _dense(rng, r, c):
    return [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]


def _low_rank(seed, r, c, rank):
    rng = random.Random(seed)
    return matmul(_dense(rng, r, rank), _dense(rng, rank, c))


# Dense matrices probe entry growth: an elimination that does not keep its
# entries reduced can double their bit length at every pivot, and on the 6x6
# matrices from seeds 6000 and 6001 such growth does not end.
DENSE_SNF_CASES = {
    "fault-6000": _dense(random.Random(6000), 6, 6),
    "fault-6001": _dense(random.Random(6001), 6, 6),
    **{f"6x6-{s}": _dense(random.Random(s), 6, 6) for s in range(30)},
    **{f"5x8-{s}": _dense(random.Random(100 + s), 5, 8) for s in range(4)},
    **{f"7x4-{s}": _dense(random.Random(200 + s), 7, 4) for s in range(4)},
    "6x6-rank3": _low_rank(300, 6, 6, 3),
    "5x8-rank2": _low_rank(301, 5, 8, 2),
    "7x4-rank1": _low_rank(302, 7, 4, 1),
    "6x6-zero-row": _dense(random.Random(303), 5, 6) + [[0] * 6],
}


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", DENSE_SNF_CASES)
def test_snf_dense_properties_and_determinantal_divisors(name):
    M = DENSE_SNF_CASES[name]
    with deadline(2.0):
        diag = check_snf(M)
    # theorem oracle: d_1 ... d_k is the gcd of all k x k minors
    r, c = len(M), len(M[0])
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                g = gcd(g, bareiss_det([[M[i][j] for j in cols] for i in rows]))
        assert prod(diag[:k]) == g


# ---------------------------------------------------------------------------
# homomorphism basics


def test_hom_well_definedness_enforced():
    with pytest.raises(ValueError):
        Homomorphism(FinAbGroup((2,)), FinAbGroup((3,)), [[1]])


def _inverse(h):
    """Inverse of a bijective homomorphism: column j is the preimage of e_j, checked both ways."""
    if not h.is_bijective():
        raise ValueError("not bijective")
    A, B = h.domain, h.codomain
    preimage = np.empty(B.order, dtype=np.int64)
    preimage[h.image_index] = np.arange(A.order)
    # e_j has index w_j, or is 0 when m_j = 1
    inv = Homomorphism(B, A, A.coords_array[preimage[(B.moduli > 1) * B.radix]].T.tolist())
    if not inv.compose(h).is_identity() or not h.compose(inv).is_identity():
        raise PostconditionError("inverse verification failed")
    return inv


def test_hom_compose_and_inverse():
    G = FinAbGroup((3, 9))
    a = Homomorphism(G, G, [[2, 0], [0, 2]])
    assert a.is_bijective()
    inv = _inverse(a)
    assert inv.compose(a).is_identity()
    assert a.compose(inv).is_identity()


def _random_hom(rng, domain, codomain):
    """A seeded homomorphism: entry (i, j) a random multiple of m_i / gcd(m_i, m_j), so well-defined."""
    return Homomorphism(
        domain,
        codomain,
        [[mi // gcd(mi, mj) * rng.randrange(gcd(mi, mj)) for mj in domain.orders] for mi in codomain.orders],
    )


@pytest.mark.parametrize(
    "orders",
    [
        ((4, 6), (12, 2, 3), (8, 6)),
        ((9,), (3, 27), (81, 3, 1)),
        ((2**70, 3**45), (2**64 * 3, 2**70), (2**63, 3**40, 6)),
        ((2**80,), (2**80, 2**80), (2**80,)),
        ((), (5,), (5, 5)),
        ((7, 7), (), (7,)),
    ],
)
def test_compose_matches_triple_loop_oracle(orders):
    # compose is one product of Python-int matrices; entries beyond 2^63 stay exact
    G1, G2, G3 = map(FinAbGroup, orders)
    rng = random.Random(str(orders))
    for _ in range(20):
        f, g = _random_hom(rng, G1, G2), _random_hom(rng, G2, G3)
        oracle = [
            [sum(g.matrix[i][k] * f.matrix[k][j] for k in range(G2.ncoords)) % G3.orders[i] for j in range(G1.ncoords)]
            for i in range(G3.ncoords)
        ]
        assert g.compose(f).matrix == tuple(map(tuple, oracle))


@pytest.mark.parametrize(
    "b_orders,a_orders,onto",
    # a cyclic group has no noncyclic image, so Z9 and Z8 reach neither target
    [((4, 2), (4,), True), ((6,), (2, 3), True), ((9,), (3, 3), False), ((8,), (4, 2), False)],
)
def test_is_surjective_matches_image_order(b_orders, a_orders, onto):
    from test_polymaps import all_homs

    homs = all_homs(FinAbGroup(b_orders), FinAbGroup(a_orders))
    verdicts = [h.is_surjective() for h in homs]
    assert verdicts == [image(h).order == h.codomain.order for h in homs]
    assert any(verdicts) == onto


# ---------------------------------------------------------------------------
# find_complement


def test_find_complement_none_for_z3z27_generator():
    G = FinAbGroup((3, 27))
    H = Subgroup.from_generators(G, [(1, 3)])
    assert find_complement(H) is None


def test_find_complement_full_subgroup():
    G = FinAbGroup((3, 27))
    K = find_complement(Subgroup.full(G))
    assert K is not None and K.order == 1


def test_find_complement_z2_in_z2z4():
    G = FinAbGroup((2, 4))
    H = Subgroup.from_generators(G, [(1, 0)])
    K = find_complement(H)
    assert K is not None
    assert K.elements == closure_set(G, [(0, 1)])
    # oracle: exhaustive subgroup search finds the same complement family
    complements = set()
    for a in G.elements():
        for b in G.elements():
            S = Subgroup.from_generators(G, [a, b])
            if S.order == 4 and S.elements & H.elements == {G.zero}:
                complements.add(S.elements)
    assert K.elements in complements


def _brute_force_complement(H):
    """Oracle: the first complement among subgroups generated by rank(A)-tuples.

    Every subgroup of A is generated by at most rank(A) elements, so the
    exhaustive scan finds a complement whenever one exists.
    """
    from itertools import product as ip

    A = H.parent
    target = A.order // H.order
    if target == 1:
        return Subgroup.trivial(A)
    seen = set()
    for tup in ip(sorted(A.elements()), repeat=max(A.rank, 1)):
        K = Subgroup.from_generators(A, tup)
        if K.elements in seen:
            continue
        seen.add(K.elements)
        if K.order == target and K.elements & H.elements == {A.zero}:
            verify_complement(A, H, K)
            return K
    return None


ORACLE_GROUPS = [
    (2, 4), (4, 8), (3, 9), (2, 8), (4, 4), (2, 6),
    (6,), (12,), (2, 2, 2), (2, 2, 4), (2, 12), (3, 6),
]


def test_find_complement_agrees_with_brute_force_oracle():
    checked = 0
    for orders in ORACLE_GROUPS:
        G = FinAbGroup(orders)
        subgroups = {}
        elems = sorted(G.elements())
        for i, a in enumerate(elems):
            for b in elems[i:]:
                S = Subgroup.from_generators(G, [a, b])
                subgroups.setdefault(S.elements, S)
        for H in subgroups.values():
            K = find_complement(H)
            assert (K is None) == (_brute_force_complement(H) is None), (orders, H.generators)
            if K is not None:
                verify_complement(G, H, K)
            checked += 1
    assert checked == 154


def test_find_complement_order_21600():
    G = FinAbGroup((4, 8, 9, 3, 5, 5))
    H = Subgroup.from_generators(G, [(1, 2, 0, 0, 0, 0), (0, 0, 3, 1, 0, 0)])
    K = find_complement(H)
    assert K is not None and K.order == 1800
    assert find_complement(Subgroup.from_generators(G, [(2, 4, 3, 0, 1, 0)])) is None


# ---------------------------------------------------------------------------
# complemented_hull


def test_hull_of_zero_is_trivial():
    G = FinAbGroup((3, 27))
    H, K = complemented_hull(G.zero)
    assert H.order == 1 and K.order == G.order


def test_hull_z3z27_matches_worked_run():
    G = FinAbGroup((3, 27))
    x = G.element((1, 3))
    H, K = complemented_hull(x)
    assert x in H
    assert H.order == 81  # the peeling run reaches the whole group, 3^4
    assert H.order <= 3**9
    assert K.order == 1
    verify_complement(G, H, K)


def test_hull_z2z8():
    G = FinAbGroup((2, 8))
    H, K = complemented_hull(G.element((1, 0)))
    assert H.elements == closure_set(G, [(1, 0)])
    assert K.elements == closure_set(G, [(0, 1)])
    assert find_complement(H) is not None


def test_hull_rejects_non_pgroup():
    G = FinAbGroup((6,))
    with pytest.raises(ValueError):
        complemented_hull(G.element((1,)))


# ---------------------------------------------------------------------------
# complemented_enlarge


def test_enlarge_trivial():
    G = FinAbGroup((3, 27))
    H, K = complemented_enlarge(Subgroup.trivial(G))
    assert H.order == 1 and K.order == G.order


def test_enlarge_single_generator_z3z27():
    G = FinAbGroup((3, 27))
    H0 = Subgroup.from_generators(G, [(1, 3)])
    H, K = complemented_enlarge(H0)
    assert H0.elements <= H.elements
    assert H.order <= 3**9
    verify_complement(G, H, K)


def test_enlarge_two_generators_z3z27():
    G = FinAbGroup((3, 27))
    H0 = Subgroup.from_generators(G, [(1, 0), (0, 3)])
    H, K = complemented_enlarge(H0)
    assert H0.elements <= H.elements
    assert H.order <= min(3**18, G.order)
    verify_complement(G, H, K)


# ---------------------------------------------------------------------------
# complemented_shrink


def test_shrink_full_group():
    G = FinAbGroup((3, 27))
    Hp, K = complemented_shrink(Subgroup.full(G))
    assert Hp.order == G.order and K.order == 1


def test_shrink_z3_times_3z27():
    G = FinAbGroup((3, 27))
    H = Subgroup.from_generators(G, [(1, 0), (0, 3)])
    assert H.index == 3
    Hp, K = complemented_shrink(H)
    assert Hp.elements <= H.elements
    assert Hp.index <= 3 ** (9 + 3)
    verify_complement(G, Hp, K)


def test_shrink_elementary_abelian_keeps_subgroup():
    # every subgroup of Z2 x Z2 is already complemented: H' = H for all 5
    G = FinAbGroup((2, 2))
    seen = set()
    subgroups = []
    for a in G.elements():
        for b in G.elements():
            S = Subgroup.from_generators(G, [a, b])
            if S.elements not in seen:
                seen.add(S.elements)
                subgroups.append(S)
    assert len(subgroups) == 5
    for H in subgroups:
        Hp, K = complemented_shrink(H)
        assert Hp.elements == H.elements
        verify_complement(G, Hp, K)


# ---------------------------------------------------------------------------
# mtorsion_complemented_shrink


def test_mtorsion_shrink_2z6():
    G = FinAbGroup((6,))
    H = Subgroup.from_generators(G, [(2,)])
    Hp, K = mtorsion_complemented_shrink(H)
    assert Hp.elements == H.elements  # already complemented by 3Z6
    assert K.elements == closure_set(G, [(3,)])


def test_mtorsion_shrink_full():
    G = FinAbGroup((6, 4))
    Hp, K = mtorsion_complemented_shrink(Subgroup.full(G))
    assert Hp.order == G.order and K.order == 1


def test_mtorsion_shrink_z4z9():
    G = FinAbGroup((4, 9))
    H = Subgroup.from_generators(G, [(2, 3)])
    Hp, K = mtorsion_complemented_shrink(H)
    assert Hp.elements <= H.elements
    verify_complement(G, Hp, K)


# ---------------------------------------------------------------------------
# randomized invariants


@pytest.mark.parametrize("seed", range(25))
def test_complement_machinery_random_pgroup(seed):
    rng = random.Random(1000 + seed)
    p = rng.choice((2, 3))
    k = rng.randint(1, 3)
    orders = tuple(p ** rng.randint(1, 3) for _ in range(k))
    A = FinAbGroup(orders)
    if A.order > 3**5:
        orders = orders[:2]
        A = FinAbGroup(orders)
    n = A.pgroup_data()[1]
    x = A.element(tuple(rng.randrange(m) for m in A.orders))
    H, K = complemented_hull(x)
    assert x in H and H.order <= p ** (n * n)
    verify_complement(A, H, K)

    gens = [A.element(tuple(rng.randrange(m) for m in A.orders)) for _ in range(2)]
    H0 = Subgroup.from_generators(A, gens)
    Hbig, Kbig = complemented_enlarge(H0)
    assert H0.elements <= Hbig.elements
    verify_complement(A, Hbig, Kbig)

    Hp, Kp = complemented_shrink(H0)
    assert Hp.elements <= H0.elements
    assert Hp.index <= max(H0.index, 1) ** (n * n + n)
    verify_complement(A, Hp, Kp)


@pytest.mark.parametrize("seed", range(10))
def test_mtorsion_shrink_random(seed):
    rng = random.Random(2000 + seed)
    orders = tuple(rng.choice((2, 3, 4, 6, 9, 12)) for _ in range(rng.randint(1, 2)))
    G = FinAbGroup(orders)
    gens = [G.element(tuple(rng.randrange(m) for m in G.orders)) for _ in range(2)]
    H = Subgroup.from_generators(G, gens)
    Hp, K = mtorsion_complemented_shrink(H)
    assert Hp.elements <= H.elements
    verify_complement(G, Hp, K)


def test_verify_complement_rejects_overlap():
    G = FinAbGroup((4,))
    H = Subgroup.from_generators(G, [(2,)])
    with pytest.raises(PostconditionError):
        verify_complement(G, H, H)


def test_find_complement_cap():
    from gowerslab.errors import CapExceeded

    G = FinAbGroup((3, 27))
    H = Subgroup.from_generators(G, [(1, 3)])
    with pytest.raises(CapExceeded):
        find_complement(H, cap=10)


def test_shrink_rejects_non_pgroup():
    G = FinAbGroup((6,))
    with pytest.raises(ValueError):
        complemented_shrink(Subgroup.from_generators(G, [(2,)]))


def all_subgroups(G):
    from itertools import product as ip

    seen = {}
    r = max(G.rank, 1)
    for tup in ip(sorted(G.elements()), repeat=r):
        S = Subgroup.from_generators(G, tup)
        seen.setdefault(S.elements, S)
    return list(seen.values())


@pytest.mark.parametrize("orders", [(4, 2), (8,), (9, 3), (2, 2, 2)])
def test_shrink_every_subgroup_exhaustive(orders):
    G = FinAbGroup(orders)
    n = G.pgroup_data()[1]
    for H in all_subgroups(G):
        Hp, K = complemented_shrink(H)
        assert Hp.elements <= H.elements
        assert Hp.index <= max(H.index, 1) ** (n * n + n)
        verify_complement(G, Hp, K)


@pytest.mark.parametrize("orders", [(4, 2), (9, 3), (2, 4, 2)])
def test_hull_every_element_exhaustive(orders):
    G = FinAbGroup(orders)
    p, n = G.pgroup_data()
    for x in G.elements():
        H, K = complemented_hull(x)
        assert x in H and H.order <= p ** (n * n)
        verify_complement(G, H, K)


# ---------------------------------------------------------------------------
# subgroup bases and hull complements: theorems against the greedy searches


def _maximal_cyclic_complement(elems, x):
    """Greedy complement of <x> inside a p-group element set with ord(x) its exponent.

    A maximal subgroup C with C * <x> = 0 is a complement; C is built from
    the elements in lexicographic order.
    """
    G = x.group
    xmult = [k * x for k in range(1, x.order())]
    c_gens, c_els = [], frozenset({G.zero})
    dstar = {m + c for m in xmult for c in c_els}
    for a in sorted(elems):
        if a in c_els or any(k * a in dstar for k in range(1, a.order())):
            continue
        c_gens.append(a)
        c_els = closure_set(G, c_gens)
        dstar = {m + c for m in xmult for c in c_els}
    assert len(c_els) * x.order() == len(elems)
    return c_gens, c_els


def _pgroup_basis(G, elems):
    """Independent generators of a p-group element set: split off a cyclic subgroup of largest order."""
    if len(elems) == 1:
        return []
    x = min(elems, key=lambda e: (-e.order(), e.coords))
    return [x] + _pgroup_basis(G, _maximal_cyclic_complement(elems, x)[1])


@pytest.mark.parametrize("orders", [(1,), (3, 1, 4), (2, 2, 2), (8, 9, 10), ()])
def test_full_subgroup_matches_element_scan(orders):
    G = FinAbGroup(orders)
    F = Subgroup.full(G)
    assert (F.generators, F.elements) == _from_elements(G, frozenset(G.elements()))


@pytest.mark.parametrize("orders", [(4, 2), (8,), (9, 3), (2, 2, 2), (4, 4), (3, 9), (), (1,), (1, 3)])
def test_subgroup_basis_matches_greedy_oracle(orders):
    G = FinAbGroup(orders)
    for H in all_subgroups(G):
        basis = _subgroup_basis(H)
        assert closure_set(G, basis) == H.elements
        assert prod(b.order() for b in basis) == H.order
        assert sorted(b.order() for b in basis) == sorted(b.order() for b in _pgroup_basis(G, H.elements))


@pytest.mark.parametrize("orders", [(2, 4), (9, 3), (9, 9), (4, 8, 2), (2, 8, 4)])
def test_hull_complement_matches_greedy_oracle(orders):
    # for x without a p-th root, the first complement generators of the hull
    # are those the greedy search finds for the unit part of x in its block
    G = FinAbGroup(orders)
    p, _ = G.pgroup_data()
    for x in G.elements():
        units = [j for j, c in enumerate(x.coords) if c % p]
        if not units:
            continue
        part = G.element([c if j in units else 0 for j, c in enumerate(x.coords)])
        block = [y for y in G.elements() if all(c == 0 for j, c in enumerate(y.coords) if j not in units)]
        c_gens, c_els = _maximal_cyclic_complement(block, part)
        _, K = complemented_hull(x)
        assert list(K.generators[: len(c_gens)]) == c_gens
        assert closure_set(G, K.generators[: len(c_gens)]) == c_els


# ---------------------------------------------------------------------------
# membership masks and image tables against the frozenset code they replaced


def _closure(parent, gens):
    """Subgroup generated by ``gens``: all multiples of each generator added to the span."""
    orders = parent.orders
    elems = {(0,) * len(orders)}
    for g in gens:
        gc = g.coords
        if gc in elems:
            continue
        multiples = []
        x = gc
        while any(x):
            multiples.append(x)
            x = tuple((a + b) % m for a, b, m in zip(x, gc, orders))
        elems |= {tuple((a + b) % m for a, b, m in zip(e, mu, orders)) for e in list(elems) for mu in multiples}
    return frozenset(GroupElement(parent, c) for c in elems)


def _from_elements(parent, elems):
    """(generators, elements) of a subgroup's element set: each smallest element not yet spanned."""
    gens, span = [], {parent.zero}
    for e in sorted(elems):
        if e not in span:
            gens.append(e)
            span = set(_closure(parent, gens))
    if span != set(elems):
        raise ValueError("element set is not closed under the group operation")
    return tuple(gens), frozenset(elems)


def _kernel(h):
    return _from_elements(h.domain, frozenset(x for x in h.domain.elements() if h(x).is_zero()))


def _image(h):
    return _from_elements(h.codomain, frozenset(h(x) for x in h.domain.elements()))


def _verify_complement(A, H, K):
    """The pairwise check: every sum h + k hashed into one set."""
    if H.parent != A or K.parent != A:
        raise ValueError("subgroups of a different group")
    hs, ks = frozenset(H.elements), frozenset(K.elements)
    if len(hs) * len(ks) != A.order:
        raise PostconditionError(f"|H|*|K| = {len(hs)}*{len(ks)} != |A| = {A.order}")
    if hs & ks != {A.zero}:
        raise PostconditionError("H and K intersect nontrivially")
    seen = set()
    for h in hs:
        for k in ks:
            s = h + k
            if s in seen:
                raise PostconditionError("decomposition h + k is not unique")
            seen.add(s)
    if len(seen) != A.order:
        raise PostconditionError("H + K does not cover A")


class _DictPresentedSubgroup:
    """The view of a subgroup as two dicts, every view element summed from the basis."""

    def __init__(self, sub):
        self.basis = _subgroup_basis(sub)
        self.group = FinAbGroup(tuple(b.order() for b in self.basis))
        self.to_parent, self.to_view = {}, {}
        for coords in iproduct(*(range(m) for m in self.group.orders)):
            e = sub.parent.zero
            for c, b in zip(coords, self.basis):
                e = e + c * b
            self.to_parent[coords] = e
            self.to_view[e] = coords
        if self.group.order != sub.order or self.to_view.keys() != frozenset(sub.elements):
            raise PostconditionError("basis is not an independent generating set of the subgroup")


MASK_ORACLE_GROUPS = [(4, 2), (8,), (9, 3), (2, 2, 2), (4, 4), (3, 9), (2, 3, 4), (), (1,), (1, 3)]


def _as_map(H):
    """The map onto H from the product of the orders of its generators, generator i to h_i."""
    F = FinAbGroup(tuple(g.order() for g in H.generators))
    return Homomorphism(F, H.parent, [[g.coords[i] for g in H.generators] for i in range(H.parent.ncoords)])


@pytest.mark.parametrize("orders", MASK_ORACLE_GROUPS)
def test_subgroup_masks_match_frozenset_oracles(orders):
    G = FinAbGroup(orders)
    subs = all_subgroups(G)
    rng = random.Random(str(orders))
    elems = sorted(G.elements())
    for _ in range(30):
        gens = rng.choices(elems, k=rng.randint(0, 3))
        assert Subgroup.from_generators(G, gens).elements == _closure(G, gens)
    for H in subs:
        assert H.elements == _closure(G, H.generators)
        h, proj = _as_map(H), quotient(G, H).projection
        for S, oracle in ((image(h), _image(h)), (kernel(h), _kernel(h)), (kernel(proj), _kernel(proj))):
            assert (S.generators, S.elements) == oracle
        for K in subs:
            S = H.intersection(K)
            assert (S.generators, S.elements) == _from_elements(G, frozenset(H.elements) & frozenset(K.elements))
            J = H.join(K)
            assert J.generators == H.generators + K.generators
            assert J.elements == _closure(G, J.generators)
            assert H.issubset(K) == (frozenset(H.elements) <= frozenset(K.elements))


def test_from_mask_refuses_a_set_that_is_not_a_subgroup():
    G = FinAbGroup((3,))
    with pytest.raises(ValueError, match="not closed"):
        Subgroup._from_mask(G, np.array([True, True, False]))


def _complement_pairs():
    """Seeded (A, H, K) triples: every pair of subgroups of small groups, and
    random zero-containing member sets whose sizes multiply to |A|."""
    out = []
    for orders in [(4, 2), (9, 3), (2, 3, 4), (8,), (1,), ()]:
        G = FinAbGroup(orders)
        subs = all_subgroups(G)
        out += [(G, H, K) for H in subs for K in subs]
    rng = random.Random(1401)
    for orders in [(8,), (4, 2), (2, 3, 2), (6, 4)]:
        G = FinAbGroup(orders)
        sizes = [a for a in range(1, G.order + 1) if G.order % a == 0]
        for _ in range(40):
            masks = []
            for size in (a := rng.choice(sizes), G.order // a):
                mask = np.zeros(G.order, dtype=bool)
                mask[[0] + rng.sample(range(1, G.order), size - 1)] = True
                masks.append(mask)
            out.append((G, Subgroup(G, (), masks[0]), Subgroup(G, (), masks[1])))
    G, other = FinAbGroup((4, 2)), FinAbGroup((8,))
    out.append((G, Subgroup.trivial(other), Subgroup.full(G)))
    return out


def _verdict(check, A, H, K):
    try:
        check(A, H, K)
    except (PostconditionError, ValueError) as e:
        return type(e).__name__, str(e)
    return None


@pytest.mark.parametrize("block", [None, 1, 7])
def test_verify_complement_matches_pairwise_oracle(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(groups, "_BLOCK", block)
    verdicts = [(_verdict(verify_complement, *t), _verdict(_verify_complement, *t)) for t in _complement_pairs()]
    assert all(new == old for new, old in verdicts)
    kinds = {old[1].split(" =")[0] if old else None for _, old in verdicts}
    assert kinds == {
        None,
        "|H|*|K|",
        "H and K intersect nontrivially",
        "decomposition h + k is not unique",
        "subgroups of a different group",
    }


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_changes_no_complement(monkeypatch, block):
    G = FinAbGroup((4, 8, 9, 3, 5, 5))
    H = Subgroup.from_generators(G, [(1, 2, 0, 0, 0, 0), (0, 0, 3, 1, 0, 0)])
    before = find_complement(H), mtorsion_complemented_shrink(H)
    monkeypatch.setattr(groups, "_BLOCK", block)
    assert (find_complement(H), mtorsion_complemented_shrink(H)) == before


@pytest.mark.parametrize("orders", MASK_ORACLE_GROUPS)
def test_presented_subgroup_matches_dict_oracle(orders):
    G = FinAbGroup(orders)
    for H in all_subgroups(G):
        view, oracle = _PresentedSubgroup(H), _DictPresentedSubgroup(H)
        assert view.basis == oracle.basis and view.group == oracle.group
        assert {x: view.view_coords(x).coords for x in H.elements} == oracle.to_view
        # the oracle's view elements run in row-major order, as the indices of _to_parent do
        assert view._to_parent.tolist() == [G.index_of(x.coords) for x in oracle.to_parent.values()]
        for S in all_subgroups(view.group):
            P = view.pull_subgroup(S)
            assert P.generators == tuple(oracle.to_parent[g.coords] for g in S.generators)
            assert P.elements == frozenset(oracle.to_parent[v.coords] for v in S.elements)


def test_elements_are_built_on_demand_from_the_mask():
    G = FinAbGroup((4, 2))
    H = Subgroup.from_generators(G, [(2, 1)])
    assert G.element((2, 1)) in H and G.element((2, 0)) not in H
    assert (2, 1) not in H and FinAbGroup((8,)).zero not in H
    assert "elements" not in vars(H) and "sorted_elements" not in vars(H)
    assert H.order == 2 and H.sorted_elements == (G.zero, G.element((2, 1)))
    assert H.elements == frozenset(H.sorted_elements)


# ---------------------------------------------------------------------------
# scale: group algebra near |A| = 10^6


def _coords(S):
    return [g.coords for g in S.generators]


def test_mtorsion_shrink_order_972000_under_3s():
    t0 = time.perf_counter()
    A = FinAbGroup((4, 8, 9, 27, 5, 25))
    Hp, K = mtorsion_complemented_shrink(Subgroup.from_generators(A, [(2, 4, 3, 9, 1, 5), (0, 2, 0, 3, 0, 5)]))
    assert time.perf_counter() - t0 < 3.0
    assert _coords(Hp) == [(0, 0, 0, 0, 1, 0)]
    assert _coords(K) == [
        (2, 0, 0, 0, 0, 0), (0, 6, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 6, 0, 0, 0),
        (0, 0, 0, 24, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 20), (0, 0, 0, 0, 0, 1),
    ]
    assert (Hp.order, K.order) == (5, 194400)


def test_z27_cubed_enlarge_and_shrink_under_half_a_second():
    t0 = time.perf_counter()
    A = FinAbGroup((27, 27, 27))
    H = Subgroup.from_generators(A, [(1, 3, 9), (0, 9, 3)])
    E, EK = complemented_enlarge(H)
    S, SK = complemented_shrink(H)
    assert time.perf_counter() - t0 < 0.5
    assert (_coords(E), _coords(EK)) == ([(1, 0, 0), (0, 19, 0), (0, 0, 25)], [])
    assert (_coords(S), _coords(SK)) == ([(1, 3, 9)], [(0, 18, 24), (0, 3, 1), (0, 1, 0)])
