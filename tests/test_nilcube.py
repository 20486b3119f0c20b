"""Cube sets, morphisms, coprime averaging, and the cocycle split."""

import random
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations, product as iproduct
from math import gcd, prod

import numpy as np
import pytest

import gowerslab.nilcube as nilcube
from gowerslab.errors import CapExceeded, CoprimalityError, PostconditionError
from gowerslab.groups import FinAbGroup, GroupElement
from gowerslab.instances import random_cocycle
from gowerslab.nilcube import (
    Cocycle,
    FilteredGroupNilspace,
    factor_average,
    coboundary,
    cube_set,
    enumerate_morphisms,
    is_cocycle,
    is_morphism,
    rooted_factor_average,
    split_cocycle,
)
from test_groups import deadline

D1Z2 = FilteredGroupNilspace(((2, 1),))
D2Z2 = FilteredGroupNilspace(((2, 2),))
D1Z3 = FilteredGroupNilspace(((3, 1),))
D2Z3 = FilteredGroupNilspace(((3, 2),))
Z3 = FinAbGroup((3,))


def all_maps(nilspace, n):
    """Brute-force universe of vertex assignments {0,1}^n -> group."""
    G = nilspace.group
    points = [x.coords for x in G.elements()]
    return [tuple(q) for q in iproduct(points, repeat=2**n)]


# ---------------------------------------------------------------------------
# oracles on tuple cubes: the dict-based cocycle check and the per-table
# morphism search, which the array kernels must agree with


@lru_cache(maxsize=None)
def _face_positions(dim, axis):
    verts = list(iproduct((0, 1), repeat=dim))
    lower = [i for i, v in enumerate(verts) if v[axis] == 0]
    upper = [i for i, v in enumerate(verts) if v[axis] == 1]
    return lower, upper


def _lower_upper(q, dim, axis):
    li, ui = _face_positions(dim, axis)
    return tuple(q[i] for i in li), tuple(q[i] for i in ui)


def _concatenate(q, qp, dim, axis):
    """Concatenation along the upper axis-face; q and qp must be adjacent."""
    li, ui = _face_positions(dim, axis)
    out = [None] * len(q)
    for i in li:
        out[i] = q[i]
    for i in ui:
        out[i] = qp[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _perm_positions(dim, perm):
    verts = list(iproduct((0, 1), repeat=dim))
    index = {v: i for i, v in enumerate(verts)}
    return tuple(index[tuple(v[perm[i]] for i in range(dim))] for v in verts)


def _permute_cube(q, dim, perm):
    """Cube v -> q(perm applied to v coordinates)."""
    return tuple(q[i] for i in _perm_positions(dim, perm))


def oracle_cocycle_failure(table, dim):
    """Why a dict cube -> GroupElement fails the cocycle checks, or None where it passes.

    Checks invariance under all dim! permutations, then additivity along
    every axis, with the messages of ``nilcube._cocycle_failures``.
    """
    members = list(table)
    for perm in permutations(range(dim)):
        for q in members:
            if table[_permute_cube(q, dim, perm)] != table[q]:
                return "not invariant under coordinate permutations"
    for axis in range(dim):
        buckets = {}
        for q in members:
            lower, _ = _lower_upper(q, dim, axis)
            buckets.setdefault(lower, []).append(q)
        for q in members:
            _, upper = _lower_upper(q, dim, axis)
            for qp in buckets.get(upper, ()):
                qq = _concatenate(q, qp, dim, axis)
                assert qq in table, "concatenation left the cube set"
                if table[qq] != table[q] + table[qp]:
                    return "not additive under concatenation"
    return None


def oracle_is_cocycle(table, dim):
    """Permutation invariance and concatenation additivity of a dict cube -> GroupElement."""
    return oracle_cocycle_failure(table, dim) is None


def transpositions(dim):
    """The transpositions (0 a), a = 1 ... dim - 1, as permutation tuples."""
    return [tuple(a if i == 0 else 0 if i == a else i for i in range(dim)) for a in range(1, dim)]


def oracle_permuted(cs, perms):
    """(len(perms), ncubes): the row of every cube with its coordinates permuted, by rank lookup."""
    Q = cs.members
    rows = [cs.position(Q[:, list(_perm_positions(cs.dim, p))]) for p in perms]
    return np.array(rows, dtype=np.int64).reshape(len(perms), len(Q))


def oracle_concatenations(cs, axis):
    """(3, npairs): the rows (q, q', q o q') of every concatenation along axis.

    q' runs over all cubes whose lower axis-face equals the upper axis-face
    of q, found by bucketing the cubes on the row of their lower face among
    the (n-1)-cubes; q o q' is found by rank lookup of the joined table.
    """
    Q = cs.members
    faces = cube_set(cs.nilspace, cs.dim - 1)
    lower, upper = _face_positions(cs.dim, axis)
    lo, up = faces.position(Q[:, lower]), faces.position(Q[:, upper])
    by_lower = np.argsort(lo, kind="stable")
    per_face = np.bincount(lo, minlength=faces.size)
    count = per_face[up]  # cube i is followed by by_lower[first[i] : first[i] + count[i]]
    first = (np.cumsum(per_face) - per_face)[up]
    q = np.repeat(np.arange(len(Q)), count)
    k = np.arange(len(q)) - np.repeat(np.cumsum(count) - count, count)
    qp = by_lower[np.repeat(first, count) + k]
    joined = Q[q]
    joined[:, upper] = Q[qp][:, upper]
    qq = cs.position(joined)
    assert (qq >= 0).all(), "concatenation left the cube set"
    return np.stack([q, qp, qq])


def face_keys(cs):
    """Keys of the lower and upper axis-0 halves (first and last 2^(n-1)
    vertices) of every member, n >= 1: each half is numbered by its bytes
    among all halves, so equal keys are equal vertex tables."""
    Q, half = cs.members, 2 ** (cs.dim - 1)
    halves = np.concatenate([Q[:, :half], Q[:, half:]])
    _, keys = np.unique(halves.view(np.dtype((np.void, halves.itemsize * half))).ravel(), return_inverse=True)
    return keys[: len(Q)], keys[len(Q) :]


def concatenations(cs):
    """The rows (q, q', q o q') of every concatenation of adjacent cubes
    along axis 0, in blocks of at most 16,384 pairs; none when n = 0.

    q' follows q exactly when lower(q') = upper(q), so the followers of q
    are the members whose lower-face key is q's upper-face key, and q o q'
    is found by the rank of its vertex table (lower(q), upper(q')).  Each
    block is certified before it is yielded: q o q' joins q and q' exactly
    when lower(q o q') = lower(q) and upper(q o q') = upper(q'), compared as
    face keys.
    """
    if not cs.dim:
        return
    Q, half = cs.members, 2 ** (cs.dim - 1)
    lower, upper = face_keys(cs)
    by_lower = np.argsort(lower, kind="stable")
    per_face = np.bincount(lower, minlength=upper.max() + 1)
    count = per_face[upper]  # cube i is followed by by_lower[start[i] : start[i] + count[i]]
    start = (np.cumsum(per_face) - per_face)[upper]
    ends = np.cumsum(count)
    for s in range(0, int(ends[-1]), 16_384):
        pairs = np.arange(s, min(s + 16_384, ends[-1]))
        q = np.searchsorted(ends, pairs, side="right")
        qp = by_lower[start[q] + pairs - (ends - count)[q]]
        qq = cs._rank(np.concatenate([Q[q, :half], Q[qp, half:]], axis=1))
        if not ((lower[qq] == lower[q]).all() and (upper[qq] == upper[qp]).all()):
            raise PostconditionError("concatenation left the cube set")
        yield q, qp, qq


def stream_cocycle_failures(cs, arrays, zmod):
    """``nilcube._cocycle_failures`` with additivity checked on every
    concatenation of the stream instead of on the potential rows."""
    v = np.hstack(arrays)
    mods = np.tile(zmod, len(arrays))
    failures = [None] * len(arrays)

    def note(bad_columns, msg):
        for i in np.flatnonzero(bad_columns.reshape(len(arrays), -1).any(axis=1)).tolist():
            failures[i] = failures[i] or msg
        return all(failures)

    for rows in cs._permuted:
        if note((v[rows] != v).any(axis=0), "not invariant under coordinate permutations"):
            return failures
    for q, qp, qq in concatenations(cs):
        if note(((v[qq] - v[q] - v[qp]) % mods).any(axis=0), "not additive under concatenation"):
            return failures
    return failures


@lru_cache(maxsize=None)
def _faces(dim, k):
    """All k-faces of {0,1}^dim as ((vertex index, sign), ...) lists.

    A face is a choice of k free coordinates and an assignment of the rest;
    the sign is the alternating sign (-1)^|v| of the full vertex.
    """
    verts = list(iproduct((0, 1), repeat=dim))
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for free in combinations(range(dim), k):
        fixed = [i for i in range(dim) if i not in free]
        for assign in iproduct((0, 1), repeat=len(fixed)):
            entries = []
            for bits in iproduct((0, 1), repeat=k):
                v = [0] * dim
                for i, b in zip(free, bits):
                    v[i] = b
                for i, b in zip(fixed, assign):
                    v[i] = b
                vt = tuple(v)
                entries.append((index[vt], -1 if sum(vt) % 2 else 1))
            out.append(tuple(entries))
    return tuple(out)


def oracle_contains(cs, q):
    """Membership of q (vertex coordinate vectors) in cs by the definition:
    vanishing alternating sums over all (d_j+1)-faces, per coordinate j."""
    if len(q) != 2**cs.dim:
        return False
    for j, (m, d) in enumerate(cs.nilspace.factors):
        if d + 1 > cs.dim:
            continue  # no (d+1)-face: constraint vacuous
        for face in _faces(cs.dim, d + 1):
            if sum(sign * q[vi][j] for vi, sign in face) % m:
                return False
    return True


def face_sums_vanish(nilspace, n, A):
    """Which rows of A (vertex tables of element indices) are n-cubes of the
    nilspace by the definition: vanishing alternating sums over all
    (d_j+1)-faces, per coordinate j, in int64."""
    coords = nilspace.group.coords_array
    ok = np.ones(len(A), dtype=bool)
    for j, (m, d) in enumerate(nilspace.factors):
        signs = np.zeros((len(_faces(n, d + 1)), 2**n), dtype=np.int64)  # no face when d + 1 > n
        for f, face in enumerate(_faces(n, d + 1)):
            for vi, sign in face:
                signs[f, vi] = sign
        ok &= ~(coords[A, j] @ signs.T % m).any(axis=1)
    return ok


def block_preserving(T, X, Y, dims):
    """Which rows of T (tables of Y element indices) send every cube of X of
    each dimension in ``dims`` to a cube of Y, by Y's face sums.

    The block search that enumerated morphisms before the per-factor face
    test: a row is dropped at its first failing block of at most
    ``nilcube._BLOCK`` images.  No cube set of Y is built.
    """
    alive = np.arange(len(T))
    for n in dims:
        QX = cube_set(X, n).members
        start = 0
        while alive.size and start < len(QX):
            stop = start + max(1, nilcube._BLOCK // alive.size)
            images = T[alive][:, QX[start:stop]].reshape(-1, 2**n)
            alive = alive[face_sums_vanish(Y, n, images).reshape(alive.size, -1).all(axis=1)]
            start = stop
    mask = np.zeros(len(T), dtype=bool)
    mask[alive] = True
    return mask


def block_is_morphism(table, X, Y, dims):
    return bool(block_preserving(np.array([[Y.group.index_of(v) for v in table]]), X, Y, dims)[0])


def block_enumerate_morphisms(X, Y):
    """Every table of |Y|^|X| in row-major order, kept when it maps each cube
    of dimension 1 .. step(Y)+1 to a cube."""
    GX, GY = X.group, Y.group
    T = np.indices((GY.order,) * GX.order).reshape(GX.order, -1).T
    T = T[block_preserving(T, X, Y, range(1, Y.step + 2))]
    return [tuple(map(tuple, t)) for t in GY.coords_array[T].tolist()]


def search_enumerate_morphisms(X, Y):
    """Every table of each codomain factor's m^|X|, in row-major order ``nilcube._BLOCK``
    at a time, kept when it passes that factor's face test; the product of the factors.

    The candidate search that ``enumerate_morphisms`` ran before the kernel.
    """
    GY, n = Y.group, X.group.order
    index = np.zeros((1, n), dtype=np.int64)  # the tables as Y element indices, factor by factor
    for m, d in Y.factors:
        cs, weights = cube_set(X, d + 1), m ** np.arange(n - 1, -1, -1)
        blocks = (np.arange(s, min(s + nilcube._BLOCK, m**n))[:, None] // weights % m for s in range(0, m**n, nilcube._BLOCK))
        index = (index[:, None] * m + np.concatenate([nilcube._into_factor(T, cs, m) for T in blocks])).reshape(-1, n)
    index = index[np.lexsort(index.T[::-1])]
    return [tuple(map(tuple, t)) for t in GY.coords_array[index].tolist()]


def oracle_enumerate_morphisms(X, Y):
    """Every table of |Y|^|X|, kept when it maps each cube to a face-sum cube."""
    GX, GY = X.group, Y.group
    points = [y.coords for y in GY.elements()]
    checks = [(cube_set(X, n).cubes, cube_set(Y, n)) for n in range(1, Y.step + 2)]
    out = []
    for table in iproduct(points, repeat=GX.order):
        if all(
            oracle_contains(cs_y, tuple(table[GX.index_of(v)] for v in q))
            for cubes, cs_y in checks
            for q in cubes
        ):
            out.append(table)
    return out


# ---------------------------------------------------------------------------
# cube sets


def test_zero_dimensional_cubes_are_points():
    cs = cube_set(D1Z3, 0)
    assert set(cs.cubes) == {((0,),), ((1,),), ((2,),)}


def test_parallelogram_law_degree_one():
    cs = cube_set(D1Z2, 2)
    assert len(cs.members) == 8
    for q in cs.cubes:
        assert (q[0][0] + q[3][0]) % 2 == (q[1][0] + q[2][0]) % 2


def test_degree_two_constraints_vacuous_in_dim_two():
    cs = cube_set(D2Z2, 2)
    assert len(cs.members) == 16


@pytest.mark.parametrize(
    "nilspace,n",
    [
        (D1Z2, 2),
        (D1Z2, 3),
        (D1Z3, 2),
        (D2Z3, 2),
        (D2Z3, 3),
        (FilteredGroupNilspace(((2, 1), (3, 2))), 2),
    ],
)
def test_membership_matches_enumeration(nilspace, n):
    # oracle: filter every vertex assignment through the face conditions
    cs = cube_set(nilspace, n)
    brute = [q for q in all_maps(nilspace, n) if oracle_contains(cs, q)]
    assert set(brute) == set(cs.cubes)
    assert len(cs.members) == len(set(cs.cubes))


def test_cube_sets_closed_under_addition():
    cs = cube_set(FilteredGroupNilspace(((2, 1), (3, 1))), 2)
    G = cs.nilspace.group
    members = set(cs.cubes)
    for q1 in cs.cubes:
        for q2 in cs.cubes:
            s = tuple(
                tuple((a + b) % m for a, b, m in zip(v1, v2, G.orders))
                for v1, v2 in zip(q1, q2)
            )
            assert s in members


def test_concatenation_stays_in_cube_set():
    cs = cube_set(D1Z3, 2)
    members = set(cs.cubes)
    for q in cs.cubes:
        for qp in cs.cubes:
            for axis in (0, 1):
                _, up = _lower_upper(q, 2, axis)
                lo, _ = _lower_upper(qp, 2, axis)
                if up == lo:
                    assert _concatenate(q, qp, 2, axis) in members


@pytest.mark.parametrize("factors", [[(2.7, True)], [(2.7, 1)], [(2, True)], [(2, 1.0)], [(np.float64(2.0), 1)]])
def test_nilspace_factors_must_be_integers(factors):
    with pytest.raises(ValueError):
        FilteredGroupNilspace(factors)


def test_nilspace_accepts_numpy_integers():
    X = FilteredGroupNilspace([(np.int64(2), np.int32(1))])
    assert X.factors == ((2, 1),) and all(type(v) is int for v in X.factors[0])


def test_cube_cap():
    from gowerslab.errors import CapExceeded

    with pytest.raises(CapExceeded):
        cube_set(FilteredGroupNilspace(((64, 3),)), 4, cap=10).members


# ---------------------------------------------------------------------------
# morphisms


def test_identity_is_morphism():
    table = tuple(x.coords for x in D1Z2.group.elements())
    assert is_morphism(table, D1Z2, D1Z2)


@pytest.mark.parametrize("length", [1, 3])
def test_is_morphism_refuses_a_table_of_the_wrong_length(length):
    # a table needs one value per element of X = D1(Z2): a longer one was read
    # on its first two entries, a shorter one ended in an IndexError
    with pytest.raises(ValueError, match="one value per element of X"):
        is_morphism(((0,),) * length, D1Z2, D1Z2)


def test_is_morphism_refuses_a_value_with_the_wrong_number_of_coordinates():
    with pytest.raises(ValueError, match=r"ncoords\(Y\) = 1 coordinates"):
        is_morphism(((0, 0), (1, 0)), D1Z2, D1Z2)


@pytest.mark.parametrize("degree", [20, 100, 2**40])
def test_a_face_beyond_the_cube_cap_is_refused_at_once(degree):
    # a (d+1)-cube of 2^(d+1) > 2,000,000 vertices: 2^40 used to end in a
    # MemoryError at the int64 bound of the face sums, 100 in numpy's
    # "Maximum allowed size exceeded" while building the cube set
    for X, table in ((D1Z2, ((0,), (0,))), (FilteredGroupNilspace(((1, 1),)), ((0,),))):
        Y = FilteredGroupNilspace(((2, degree),))
        with deadline(2.0), pytest.raises(CapExceeded, match="cube-set cap"):
            is_morphism(table, X, Y)
        with deadline(2.0), pytest.raises(CapExceeded, match="cube-set cap"):
            enumerate_morphisms(X, Y)


@pytest.mark.parametrize("dim", [21, 31, 101])
def test_a_cube_set_beyond_the_cube_cap_is_refused_on_a_trivial_carrier(dim):
    # one cube of 2^dim > 2,000,000 vertices: 2^31 used to end in a 16 GiB
    # MemoryError, 2^101 in numpy's "Maximum allowed size exceeded"
    X = FilteredGroupNilspace(((1, 1),))
    with deadline(2.0), pytest.raises(CapExceeded, match="cube-set cap"):
        cube_set(X, dim).members


def test_a_face_at_the_cube_cap_is_summed():
    # d + 1 = 20: 2^20 vertices, within the cap; the trivial X maps anywhere
    X = FilteredGroupNilspace(((1, 1),))
    assert is_morphism(((1,),), X, FilteredGroupNilspace(((2, 19),)))


@pytest.mark.parametrize("factors, dim", [(((6, 1),), 3), (((3, 1), (2, 1)), 2), (((2, 2),), 3), (((4, 1),), 1)])
def test_varying_members_are_those_no_axis_leaves_constant(factors, dim):
    # a cube constant along an axis has signed sum 0 under every map; the rest stay, in member order
    cs = cube_set(FilteredGroupNilspace(factors), dim)
    flips = [[v ^ (1 << (dim - 1 - i)) for v in range(2**dim)] for i in range(dim)]
    expected = [q for q in cs.members.tolist() if all(any(q[v] != q[w] for v, w in enumerate(f)) for f in flips)]
    assert cs._varying.tolist() == expected
    assert not cs._varying.flags.writeable


@pytest.mark.parametrize("m", [2**62, 2**63 - 4, 2**64])
def test_is_morphism_is_exact_for_moduli_near_and_above_int64(m):
    # face sums of residues near 2^63 leave int64, and the verdicts must be the
    # face-sum oracle's in Python ints: at m = 2^63 - 4 the int64 sum 2c of the
    # non-morphism (0, 0, c, c), c = m/2 + 4, wraps to a multiple of m
    X, Y = D1Z2.product(D1Z2), FilteredGroupNilspace(((m, 1),))
    c, rng = m // 2 + 4, random.Random(m)
    tables = [
        [((a0 * x0 + a1 * x1 - 1) % m,) for x0, x1 in iproduct((0, 1), repeat=2)]
        for a0, a1 in ((0, 0), (m // 2, 0), (m // 2, m // 2))
    ]
    tables += [[(0,), (0,), (c,), (c,)], [(0,), (c,), (0,), (c,)]]
    tables += [[(rng.randrange(m),) for _ in range(4)] for _ in range(3)]
    cubes = [(cube_set(Y, n), list(cube_set(X, n).cubes)) for n in (1, 2)]
    verdicts = [is_morphism(t, X, Y) for t in tables]
    oracle = [
        all(oracle_contains(cs, tuple(t[X.group.index_of(v)] for v in q)) for cs, qs in cubes for q in qs) for t in tables
    ]
    assert verdicts == oracle and verdicts[:5] == [True, True, True, False, False]


def test_morphisms_to_coprime_target_are_constant():
    morphs = enumerate_morphisms(D1Z2, D1Z3)
    assert len(morphs) == 3
    assert all(len(set(t)) == 1 for t in morphs)


def test_morphisms_to_degree_two_coprime_target_are_constant():
    morphs = enumerate_morphisms(D1Z2, D2Z3)
    assert len(morphs) == 3
    assert all(len(set(t)) == 1 for t in morphs)


def test_translations_preserve_morphisms():
    Y = D1Z3
    morphs = set(enumerate_morphisms(D1Z2, Y))
    GY = Y.group
    for t in list(morphs):
        for a in GY.elements():
            shifted = tuple((GY.element(v) + a).coords for v in t)
            assert shifted in morphs


@pytest.mark.parametrize(
    "X,Y",
    [(D1Z2, D1Z3), (D1Z2, D1Z2), (D1Z2, D2Z3), (D1Z3, D1Z2)],
)
def test_morphism_dimension_cap_cross_check(X, Y):
    # the (d_j+1)-face test equals the block check of every cube of dimension
    # up to step(Y)+2 on tiny cases
    GX, GY = X.group, Y.group
    points = [x.coords for x in GY.elements()]
    for table in iproduct(points, repeat=GX.order):
        a = is_morphism(table, X, Y)
        b = block_is_morphism(table, X, Y, range(1, Y.step + 3))
        assert a == b


_GRID_X = [(), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),), ((2, 2),), ((2, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 2), (1, 1))]
_GRID_Y = [
    (),
    ((2, 1),),
    ((3, 1),),
    ((4, 1),),
    ((2, 2),),
    ((3, 2),),
    ((4, 2),),
    ((2, 3),),
    ((2, 1), (2, 1)),
    ((2, 1), (3, 1)),
    ((2, 2), (2, 1)),
    ((3, 1), (2, 2)),
    ((2, 1), (2, 1), (2, 1)),
    ((2, 1), (2, 2), (2, 3)),
    ((2, 2), (3, 1), (2, 1)),
]
_GRID = [
    (x, y)
    for x in _GRID_X
    for y in _GRID_Y
    if FilteredGroupNilspace(y).group.order ** FilteredGroupNilspace(x).group.order <= 4096
]


@pytest.mark.parametrize("x,y", _GRID, ids=[f"{x}->{y}" for x, y in _GRID])
def test_enumerate_morphisms_matches_the_block_search(x, y):
    X, Y = FilteredGroupNilspace(x), FilteredGroupNilspace(y)
    assert enumerate_morphisms(X, Y) == block_enumerate_morphisms(X, Y)


@pytest.mark.parametrize("y", [(), ((1, 1),), ((1, 1), (1, 1))])
def test_a_codomain_of_order_one_takes_a_domain_of_64_elements(y):
    # one candidate per factor, the constant map; a numpy array holds at most
    # 64 axes, so the candidates cannot take one axis per element of X
    X = FilteredGroupNilspace(((2, 1),) * 6)
    assert enumerate_morphisms(X, FilteredGroupNilspace(y)) == [((0,) * len(y),) * 64]


def test_a_morphism_call_keeps_no_cube_set_of_y(monkeypatch):
    monkeypatch.setattr(nilcube, "_kept", {})
    X = FilteredGroupNilspace(((2, 1), (2, 1)))
    Y = FilteredGroupNilspace(((2, 2), (3, 1)))
    morphs = enumerate_morphisms(X, Y)
    assert len(morphs) == 2**4 * 3 and is_morphism(morphs[-1], X, Y)
    assert nilcube._kept and {key[0] for key in nilcube._kept} == {X}


def test_d1z6_to_d2z6_morphisms_pass_the_face_sum_oracle():
    X, Y = FilteredGroupNilspace(((6, 1),)), FilteredGroupNilspace(((6, 2),))
    morphs = enumerate_morphisms(X, Y)
    assert len(morphs) == 108 and morphs == sorted(set(morphs))
    for n in range(1, Y.step + 2):
        cubes, cs_y = list(cube_set(X, n).cubes), cube_set(Y, n)
        for t in morphs:
            assert all(oracle_contains(cs_y, tuple(t[v[0]] for v in q)) for q in cubes)


# ---------------------------------------------------------------------------
# coprime averaging


def avg_coprime(values, count: int, Z: FinAbGroup) -> GroupElement:
    """The unique z in Z with count * z = sum(values), in Python ints; needs gcd(count, |Z|) = 1.

    The oracle that the array averages of ``factor_average`` are compared against.
    """
    if gcd(count, Z.order) != 1:
        raise CoprimalityError(f"gcd({count}, |Z|={Z.order}) != 1")
    total = Z.zero
    n = 0
    for v in values:
        total = total + v
        n += 1
    if n != count:
        raise ValueError("count does not match the number of values")
    return GroupElement(Z, tuple(c * pow(count, -1, m) % m if m > 1 else 0 for c, m in zip(total.coords, Z.orders)))


def test_avg_coprime_forced_values():
    z1 = avg_coprime([Z3.element((1,)), Z3.element((1,))], 2, Z3)
    assert z1.coords == (1,)  # 2z = 2  ->  z = 1
    z0 = avg_coprime([Z3.element((1,)), Z3.element((2,))], 2, Z3)
    assert z0.coords == (0,)  # 2z = 0  ->  z = 0
    z = avg_coprime([Z3.element((1,)), Z3.element((2,)), Z3.zero, Z3.zero], 4, Z3)
    assert z.coords == (0,)


@pytest.mark.parametrize("orders", [(3, 5), (2**32 + 15,), (3, 2**62 + 135)])
def test_avg_coprime_matches_a_python_int_oracle(orders):
    # several coordinates, and z orders whose residue times inverse passes 2^63:
    # z is the one residue per coordinate with count * z = sum mod m
    Z = FinAbGroup(orders)
    rng = random.Random(repr(orders))
    for count in (1, 2, 4, 7):
        vals = [Z.element(tuple(rng.randrange(m) for m in orders)) for _ in range(count)]
        z = avg_coprime(vals, count, Z).coords
        for j, m in enumerate(orders):
            assert 0 <= z[j] < m and (count * z[j] - sum(v.coords[j] for v in vals)) % m == 0


def test_avg_coprime_rejects_shared_factor():
    with pytest.raises(CoprimalityError):
        avg_coprime([Z3.zero, Z3.zero, Z3.zero], 3, Z3)


def test_avg_coprime_defining_identity():
    rng = random.Random(8)
    Z9 = FinAbGroup((9,))
    for _ in range(20):
        vals = [Z9.element((rng.randrange(9),)) for _ in range(4)]
        z = avg_coprime(vals, 4, Z9)
        total = Z9.zero
        for v in vals:
            total = total + v
        assert 4 * z == total


# ---------------------------------------------------------------------------
# coboundaries


def test_coboundary_of_constant_vanishes():
    X = D1Z2.product(D1Z3)
    g = {x.coords: Z3.element((2,)) for x in X.group.elements()}
    rho = coboundary(X, Z3, 2, g)
    assert all(v.is_zero() for v in rho.table.values())


def test_coboundary_of_character_on_parallelograms_vanishes():
    # g = identity on D1(Z5): q(00) - q(01) - q(10) + q(11) = 0
    D1Z5 = FilteredGroupNilspace(((5, 1),))
    Z5 = FinAbGroup((5,))
    g = {x.coords: x for x in Z5.elements()}
    rho = coboundary(D1Z5, Z5, 2, g)
    assert all(v.is_zero() for v in rho.table.values())


def test_coboundary_of_square_is_nonzero_cocycle():
    D1Z5 = FilteredGroupNilspace(((5, 1),))
    Z5 = FinAbGroup((5,))
    g = {x.coords: Z5.element((x.coords[0] ** 2,)) for x in Z5.elements()}
    rho = coboundary(D1Z5, Z5, 2, g)
    assert len(rho.table) == 125
    assert any(not v.is_zero() for v in rho.table.values())
    assert is_cocycle(rho)


def test_coboundary_always_cocycle_random():
    rng = random.Random(17)
    X = D1Z2.product(D1Z3)
    for _ in range(5):
        g = {
            x.coords: Z3.element((rng.randrange(3),)) for x in X.group.elements()
        }
        assert is_cocycle(coboundary(X, Z3, 2, g))


def test_is_cocycle_rejects_random_table():
    X = D1Z2.product(D1Z3)
    cs = cube_set(X, 2)
    rng = random.Random(23)
    table = {q: Z3.element((rng.randrange(3),)) for q in cs.cubes}
    assert not is_cocycle(Cocycle(X, Z3, 2, table))


def test_coboundary_reads_a_value_table_by_key():
    # a mapping that is not a dict was read as the sequence of its keys
    _, g0, _ = random_cocycle(random.Random(19), D1Z2, D1Z3, Z3, 2)
    X = D1Z2.product(D1Z3)
    assert np.array_equal(coboundary(X, Z3, 2, g0).array, coboundary(X, Z3, 2, g0.array).array)


# ---------------------------------------------------------------------------
# averaging operators


def _pullback_from_y2(y1, y2, Z, dim, g2):
    X = y1.product(y2)
    s = y1.group.ncoords
    g = {x.coords: g2[x.coords[s:]] for x in X.group.elements()}
    return coboundary(X, Z, dim, g)


def test_average_of_pullback_is_identity():
    rng = random.Random(3)
    g2 = {y.coords: Z3.element((rng.randrange(3),)) for y in Z3.elements()}
    rho = _pullback_from_y2(D1Z2, D1Z3, Z3, 2, g2)
    E = factor_average(rho, 1)
    assert all(E.table[q] == rho.table[q] for q in rho.table)
    Ep = rooted_factor_average(rho, 1)
    assert all(Ep[q] == rho.table[q] for q in rho.table)


def test_average_of_zero_is_zero():
    X = D1Z2.product(D1Z3)
    cs = cube_set(X, 2)
    rho = Cocycle(X, Z3, 2, {q: Z3.zero for q in cs.cubes})
    E = factor_average(rho, 1)
    assert all(v.is_zero() for v in E.table.values())
    assert all(v.is_zero() for v in rooted_factor_average(rho, 1).values())


def test_average_of_coboundary_averages_the_point_function():
    # E(sigma(g o q)) = sigma(gbar o q2) where gbar(y2) = avg_{y1} g(y1, y2)
    rng = random.Random(29)
    y1, y2 = D1Z2, D1Z3
    X = y1.product(y2)
    g = {x.coords: Z3.element((rng.randrange(3),)) for x in X.group.elements()}
    rho = coboundary(X, Z3, 2, g)
    E = factor_average(rho, 1)
    gbar = {}
    for yb in y2.group.elements():
        vals = [g[(ya.coords[0],) + yb.coords] for ya in y1.group.elements()]
        gbar[yb.coords] = avg_coprime(vals, len(vals), Z3)
    expected = _pullback_from_y2(y1, y2, Z3, 2, gbar)
    assert all(E.table[q] == expected.table[q] for q in E.table)


def test_average_is_idempotent():
    rng = random.Random(41)
    rho, _, _ = random_cocycle(rng, D1Z2, D1Z3, Z3, 2)
    E = factor_average(rho, 1)
    EE = factor_average(E, 1)
    assert all(EE.table[q] == E.table[q] for q in E.table)


def test_average_factors_through_second_projection():
    rng = random.Random(43)
    rho, _, _ = random_cocycle(rng, D1Z2, D1Z3, Z3, 2)
    E = factor_average(rho, 1)
    seen = {}
    for q, v in E.table.items():
        q2 = tuple(c[1:] for c in q)
        assert seen.setdefault(q2, v) == v


def test_rooted_average_depends_only_on_root_for_coboundaries():
    rng = random.Random(47)
    rho, _, _ = random_cocycle(rng, D1Z2, D1Z3, Z3, 2)
    E = factor_average(rho, 1)
    Ep = rooted_factor_average(rho, 1)
    by_root = {}
    for q in rho.table:
        diff = Ep[q] - E.table[q]
        assert by_root.setdefault(q[0], diff) == diff


@pytest.mark.parametrize(
    "y1, y2, orders, dim",
    [(D1Z2, D1Z3, (3,), 2), (D1Z2, D2Z3, (3, 5), 2), (D1Z3, D1Z2, (4,), 3)],
)
def test_factor_averages_match_the_python_int_oracle(y1, y2, orders, dim):
    # each value is avg_coprime over the cubes sharing q2 and, when rooted, the root of q1
    Z = FinAbGroup(orders)
    rho, _, _ = random_cocycle(random.Random(dim), y1, y2, Z, dim)
    s, classes = y1.group.ncoords, {}
    keys = {q: (tuple(c[s:] for c in q), q[0][:s]) for q in rho.table}
    for q, v in rho.table.items():
        classes.setdefault(keys[q][0], []).append(v)
        classes.setdefault(keys[q], []).append(v)
    full, rooted = factor_average(rho, 1), rooted_factor_average(rho, 1)
    for q, (q2, root) in keys.items():
        assert full.table[q] == avg_coprime(classes[q2], len(classes[q2]), Z)
        assert rooted[q] == avg_coprime(classes[q2, root], len(classes[q2, root]), Z)


def test_average_rejects_non_coprime():
    rng = random.Random(53)
    rho, _, _ = random_cocycle(rng, D1Z3, D1Z3, Z3, 2)
    with pytest.raises(CoprimalityError):
        factor_average(rho, 1)
    with pytest.raises(CoprimalityError):
        rooted_factor_average(rho, 1)


@pytest.mark.parametrize("z", [2**32 + 1, 2**62 + 1])
def test_average_refuses_a_z_order_above_isqrt_int64(z):
    # the residue products would overflow int64 and fail the cocycle check;
    # coboundary refuses such z, so the table is summed in Python ints
    Z, X = FinAbGroup((z,)), D1Z2.product(D1Z3)
    rho = Cocycle(X, Z, 2, int_coboundary(X, z, 2, random_points(random.Random(59), X, z)))
    with pytest.raises(CapExceeded, match="isqrt"):
        factor_average(rho, 1)
    with pytest.raises(CapExceeded, match="isqrt"):
        rooted_factor_average(rho, 1)
    with pytest.raises(CapExceeded, match="isqrt"):
        split_cocycle(rho, 1)


def int_coboundary(X, z, dim, g):
    """sigma_dim(g o q) mod z for a point function g (a list of ints in
    element order), one row per cube in carrier order, summed in Python ints."""
    signs = [(-1) ** sum(v) for v in iproduct((0, 1), repeat=dim)]
    rows = cube_set(X, dim).members.tolist()
    return np.array([[sum(s * g[x] for s, x in zip(signs, q)) % z] for q in rows], dtype=np.int64)


def random_points(rng, X, z):
    return [rng.randrange(z) for _ in range(X.group.order)]


def test_coboundary_at_isqrt_int64_matches_python_ints():
    X, z = D1Z2.product(D1Z3), 3_037_000_499
    g = random_points(random.Random(69), X, z)
    rho = coboundary(X, FinAbGroup((z,)), 2, np.array(g, dtype=np.int64)[:, None])
    assert np.array_equal(rho.array, int_coboundary(X, z, 2, g))


@pytest.mark.parametrize("z", [3_037_000_501, 2**63 - 1])
def test_coboundary_refuses_a_z_order_above_isqrt_int64(z):
    # the int64 vertex sums overflow here: at 2^63 - 1, 46 of these 216 rows
    # used to differ from the Python-int sums
    X = D1Z2.product(D1Z3)
    g = random_points(random.Random(69), X, z)
    with pytest.raises(CapExceeded, match="isqrt"):
        coboundary(X, FinAbGroup((z,)), 2, np.array(g, dtype=np.int64)[:, None])


def test_is_cocycle_accepts_a_z_order_at_isqrt_int64():
    Z = FinAbGroup((3_037_000_499,))
    rho, _, _ = random_cocycle(random.Random(5), D1Z2, D1Z3, Z, 2)
    assert is_cocycle(rho)


@pytest.mark.parametrize("z", [3_037_000_501, 2**62 + 1, 2**63 - 1])
def test_is_cocycle_refuses_a_z_order_above_isqrt_int64(z):
    # the int64 differences of the checks overflow here: at 2^63 - 1 the
    # verdict on a cocycle used to be False; coboundary refuses such z, so
    # the table is summed in Python ints
    X = D1Z2.product(D1Z3)
    rho = Cocycle(X, FinAbGroup((z,)), 2, int_coboundary(X, z, 2, random_points(random.Random(5), X, z)))
    with pytest.raises(CapExceeded, match="isqrt"):
        is_cocycle(rho)
    with pytest.raises(CapExceeded, match="isqrt"):
        factor_average(rho, 1)
    with pytest.raises(CapExceeded, match="isqrt"):
        split_cocycle(rho, 1)


def test_average_at_isqrt_int64_is_exact():
    z = 3_037_000_499
    rho, _, _ = random_cocycle(random.Random(61), D1Z2, D1Z3, FinAbGroup((z,)), 2)
    E = factor_average(rho, 1)
    # Python-int oracle: the class sum times the inverse of the class size, mod z
    classes = {}
    for q, v in rho.table.items():
        classes.setdefault(tuple(c[1:] for c in q), []).append(v.coords[0])
    for q, v in E.table.items():
        members = classes[tuple(c[1:] for c in q)]
        assert v.coords[0] == sum(members) * pow(len(members), -1, z) % z


# ---------------------------------------------------------------------------
# the split


def test_split_zero_cocycle():
    X = D1Z2.product(D1Z3)
    cs = cube_set(X, 2)
    rho = Cocycle(X, Z3, 2, {q: Z3.zero for q in cs.cubes})
    res = split_cocycle(rho, 1)
    assert all(v.is_zero() for v in res.kappa.table.values())
    assert all(v.is_zero() for v in res.g.values())
    assert all(v.is_zero() for v in res.residual.values())


def test_split_pullback_gives_zero_g():
    rng = random.Random(59)
    g2 = {y.coords: Z3.element((rng.randrange(3),)) for y in Z3.elements()}
    rho = _pullback_from_y2(D1Z2, D1Z3, Z3, 2, g2)
    res = split_cocycle(rho, 1)
    assert all(res.kappa.table[q] == rho.table[q] for q in rho.table)
    assert all(v.is_zero() for v in res.g.values())


@pytest.mark.parametrize("dim", [2, 3])
def test_split_coboundary_plus_pullback_family(dim):
    rng = random.Random(60 + dim)
    rho, g0, g2 = random_cocycle(rng, D1Z2, D1Z3, Z3, dim)
    res = split_cocycle(rho, 1)
    assert all(v.is_zero() for v in res.residual.values())
    # kappa factors through pi_2
    seen = {}
    for q, v in res.kappa.table.items():
        q2 = tuple(c[1:] for c in q)
        assert seen.setdefault(q2, v) == v
    # recovered g differs from the generating data by a pullback shift:
    # sigma((g - g0) o q) = (rho - sigma(g0 o q)) - kappa, the pullback defect
    X = rho.nilspace
    diff = {x: res.g[x] - g0[x] for x in res.g}
    sig = coboundary(X, Z3, dim, diff)
    base = coboundary(X, Z3, dim, g0)
    for q in rho.table:
        assert sig.table[q] == rho.table[q] - res.kappa.table[q] - base.table[q]
        assert res.kappa.table[q] + sig.table[q] + base.table[q] == rho.table[q]


def test_split_rejects_non_cocycle():
    X = D1Z2.product(D1Z3)
    cs = cube_set(X, 2)
    rng = random.Random(61)
    table = {q: Z3.element((rng.randrange(3),)) for q in cs.cubes}
    with pytest.raises(ValueError):
        split_cocycle(Cocycle(X, Z3, 2, table), 1)


def test_split_rejects_non_coprime():
    rng = random.Random(67)
    rho, _, _ = random_cocycle(rng, D1Z3, D1Z3, Z3, 2)
    with pytest.raises(CoprimalityError):
        split_cocycle(rho, 1)


def test_split_refuses_non_cocycle_before_non_coprime():
    X = D1Z3.product(D1Z3)
    rng = random.Random(71)
    table = {q: Z3.element((rng.randrange(3),)) for q in cube_set(X, 2).cubes}
    with pytest.raises(ValueError, match="input fails the cocycle checks"):
        split_cocycle(Cocycle(X, Z3, 2, table), 1)


def test_split_reports_a_bad_average_as_postcondition(monkeypatch):
    import gowerslab.nilcube as nilcube

    average = nilcube._average
    monkeypatch.setattr(nilcube, "_average", lambda *a: (average(*a) + 1) % 3)
    rho, _, _ = random_cocycle(random.Random(73), D1Z2, D1Z3, Z3, 2)
    with pytest.raises(PostconditionError, match="averaged table is not a cocycle"):
        split_cocycle(rho, 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_cocycle_checks_match_single_checks(dim):
    from gowerslab.nilcube import _cocycle_failures

    rng = random.Random(7100 + dim)
    X = D1Z2.product(D1Z3)
    cs = cube_set(X, dim)
    zmod = np.array([3])
    good = random_cocycle(rng, D1Z2, D1Z3, Z3, dim)[0].array
    # a change on one cube that some permutation moves breaks invariance; a nonzero
    # constant is invariant but not additive
    moved = np.flatnonzero((cs._permuted != np.arange(len(good))).any(axis=0))
    changed = good.copy()
    changed[rng.choice(moved.tolist())] += 1
    constant = np.ones_like(good)
    arrays = [good, changed % 3, constant, good]
    single = [_cocycle_failures(cs, [a], zmod)[0] for a in arrays]
    assert single == [
        None,
        "not invariant under coordinate permutations",
        "not additive under concatenation",
        None,
    ]
    assert _cocycle_failures(cs, arrays, zmod) == single
    for a, failure in zip(arrays, single):
        assert is_cocycle(Cocycle._on(cs, Z3, a)) == (failure is None)
        if failure:
            with pytest.raises(PostconditionError, match=failure):
                is_cocycle(Cocycle._on(cs, Z3, a), raise_on_failure=True)


# ---------------------------------------------------------------------------
# reflections: logged, no sign convention asserted


def test_reflection_maps_cubes_to_cubes():
    cs = cube_set(D1Z3, 2)
    members = set(cs.cubes)
    verts = list(iproduct((0, 1), repeat=2))
    index = {v: i for i, v in enumerate(verts)}
    reflected_values = set()
    rng = random.Random(71)
    g = {x.coords: Z3.element((rng.randrange(3),)) for x in Z3.elements()}
    rho = coboundary(D1Z3, Z3, 2, g)
    for q in cs.cubes:
        refl = tuple(q[index[(1 - v[0], v[1])]] for v in verts)
        assert refl in members
        reflected_values.add((rho.table[q].coords, rho.table[refl].coords))
    # record: reflection negates this coboundary's values (observed, not asserted
    # as a convention: the checks above only require membership)
    assert reflected_values  # non-empty log


@pytest.mark.parametrize(
    "a_orders,b_orders,k",
    [((2,), (4,), 1), ((2,), (4,), 2), ((3,), (3,), 1), ((2, 2), (2,), 1), ((4,), (2,), 2)],
)
def test_morphisms_are_exactly_bounded_degree_polymaps(a_orders, b_orders, k):
    # cross-module oracle: a map A -> B preserves every Host-Kra cube of
    # D_1(A) -> D_k(B) exactly when its (k+1)-fold derivatives vanish
    from gowerslab.polymaps import PolyMap

    A, B = FinAbGroup(a_orders), FinAbGroup(b_orders)
    X = FilteredGroupNilspace.uniform(A, 1)
    Y = FilteredGroupNilspace.uniform(B, k)
    morphs = set(enumerate_morphisms(X, Y))
    polys = set()
    points = [y.coords for y in B.elements()]
    for table in iproduct(points, repeat=A.order):
        d = PolyMap(A, B, table).degree
        if d is not None and d <= k:
            polys.add(table)
    assert morphs == polys


# ---------------------------------------------------------------------------
# array kernels against the tuple oracles


@pytest.mark.parametrize(
    "y1,y2,dim",
    [(D1Z2, D1Z3, 2), (D1Z2, D1Z3, 3), (D1Z2, D1Z3, 4), (D1Z2.product(D1Z2), D2Z3, 2)],
)
def test_is_cocycle_matches_oracle(y1, y2, dim):
    rng = random.Random(7000 + dim)
    X = y1.product(y2)
    rho, _, _ = random_cocycle(rng, y1, y2, Z3, dim)
    table = dict(rho.table.items())
    assert is_cocycle(rho) and oracle_is_cocycle(table, dim)
    # a single changed cube breaks every cocycle
    for q in rng.sample(list(table), 3):
        bad = dict(table)
        bad[q] = bad[q] + Z3.element((rng.randrange(1, 3),))
        assert not is_cocycle(Cocycle(X, Z3, dim, bad))
        assert not oracle_is_cocycle(bad, dim)
    for _ in range(2):
        uniform = {q: Z3.element((rng.randrange(3),)) for q in table}
        assert is_cocycle(Cocycle(X, Z3, dim, uniform)) == oracle_is_cocycle(uniform, dim)


# the twelve light-band pairs of the cocycles benchmark workload, and D1(Z6) -> D1(Z2)
ORACLE_MORPHISMS = [
    (((2, 1),), ((2, 1),)),
    (((2, 1),), ((3, 1),)),
    (((2, 1),), ((2, 2),)),
    (((2, 1),), ((4, 1),)),
    (((3, 1),), ((2, 1),)),
    (((2, 1),), ((2, 1), (2, 1))),
    (((2, 1),), ((5, 1),)),
    (((2, 1),), ((3, 2),)),
    (((2, 1),), ((6, 1),)),
    (((3, 1),), ((3, 1),)),
    (((2, 1), (2, 1)), ((2, 1),)),
    (((4, 1),), ((2, 1),)),
    (((6, 1),), ((2, 1),)),
]


@pytest.mark.parametrize("x,y", ORACLE_MORPHISMS)
def test_enumerate_morphisms_matches_per_table_oracle(x, y):
    X, Y = FilteredGroupNilspace(x), FilteredGroupNilspace(y)
    assert enumerate_morphisms(X, Y) == oracle_enumerate_morphisms(X, Y)


def test_enumerate_morphisms_over_several_blocks():
    # 4^8 = 65,536 candidate tables; the morphisms D1(Z8) -> D1(Z4) are the
    # affine maps x -> a x + b
    X = FilteredGroupNilspace(((8, 1),))
    Y = FilteredGroupNilspace(((4, 1),))
    affine = sorted(tuple(((a * x + b) % 4,) for x in range(8)) for a in range(4) for b in range(4))
    assert enumerate_morphisms(X, Y) == affine


# the kernel against the candidate search it replaced, on composite m, mixed degrees and several factors
SEARCH_MORPHISMS = [
    (((6, 1),), ((6, 2),)),
    (((4, 1),), ((8, 1),)),
    (((6, 1),), ((4, 1),)),
    (((9, 1),), ((3, 2),)),
    (((4, 1), (2, 2)), ((4, 2),)),
    (((2, 2), (3, 1)), ((6, 2), (2, 1))),
    (((8, 1),), ((4, 3),)),
    (((3, 2), (2, 1)), ((12, 1),)),
]


@pytest.mark.parametrize("x,y", SEARCH_MORPHISMS)
def test_enumerate_morphisms_matches_the_candidate_search(x, y):
    X, Y = FilteredGroupNilspace(x), FilteredGroupNilspace(y)
    assert enumerate_morphisms(X, Y, cap=10**8) == search_enumerate_morphisms(X, Y)


@pytest.mark.parametrize("a", range(1, 13))
def test_morphisms_d1za_to_d1zb_are_the_b_gcd_a_b_affine_maps(a):
    # Hom(D1(Z_a), D1(Z_b)) is the maps x -> c x + e with a c = 0 mod b: gcd(a, b) slopes, b offsets
    X = FilteredGroupNilspace(((a, 1),))
    for b in range(1, 13):
        affine = sorted({tuple(((c * x + e) % b,) for x in range(a)) for c in range(b) if a * c % b == 0 for e in range(b)})
        morphs = enumerate_morphisms(X, FilteredGroupNilspace(((b, 1),)), cap=max(a, b**a))
        assert len(morphs) == b * gcd(a, b) and morphs == affine, b


@pytest.mark.parametrize("m", [4, 6, 8, 12])
def test_reduced_basis_spans_m_z_x_and_keeps_the_kernel_of_its_rows(m):
    # H spans the rows plus m Z^4 only if each old pivot is reduced with the rows: the row
    # 2 e0 - e1 - e2 = (2, 3, 3, 0) mod 4 becomes pivot 2, and the old pivot 4 e0 leaves
    # 4 e0 - 2 (2, 3, 3, 0) = (0, 2, 2, 0) mod 4 for column 1
    rng, n = random.Random(m), 4
    cs = cube_set(FilteredGroupNilspace(((n, 1),)), 2)  # _reduce reads its dimension, for the signs
    everything = np.indices((m,) * n).reshape(n, -1).T
    for cubes in [[[0, 1, 2, 0]]] + [[[rng.randrange(n) for _ in range(4)] for _ in range(rng.randrange(1, 4))] for _ in range(30)]:
        rows = np.zeros((len(cubes), n), dtype=np.int64)
        for r, q in enumerate(cubes):
            for v, sign in zip(q, (1, -1, -1, 1)):
                rows[r, v] += sign
        H = np.diag(np.full(n, m, dtype=np.int64))
        nilcube._reduce(H, cs, np.array(cubes), m)
        _, D, _ = nilcube.smith_normal_form(H.tolist())
        kernel = everything[(everything @ rows.T % m == 0).all(axis=1)]
        assert all(m % D[i][i] == 0 for i in range(n)) and len(kernel) == prod(D[i][i] for i in range(n))
        assert np.array_equal(kernel, everything[(everything @ H.T % m == 0).all(axis=1)])


def test_a_second_call_runs_no_elimination(monkeypatch):
    # the generators are kept per m on the (d+1)-cube set of X
    monkeypatch.setattr(nilcube, "_kept", {})
    calls, snf = [], nilcube.smith_normal_form
    monkeypatch.setattr(nilcube, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    X, Y = FilteredGroupNilspace(((4, 1),)), FilteredGroupNilspace(((6, 2), (2, 1)))
    first = enumerate_morphisms(X, Y)
    assert len(first) == 4 * 6 * 2 * 2 and len(calls) >= 2
    count = len(calls)
    assert enumerate_morphisms(X, Y) == first and len(calls) == count
    assert set(cube_set(X, 3)._hom_sets) == {6} and set(cube_set(X, 2)._hom_sets) == {2}


@pytest.mark.parametrize(
    "perturb, message",
    [("shift", "fails the face test"), ("repeat", "two morphism tables coincide")],
)
def test_a_perturbed_kernel_generator_is_refused(monkeypatch, perturb, message):
    # D1(Z4) -> D1(Z4): two generators of order 4.  Adding 1 at x = 0 to one leaves
    # the affine maps; repeating one passes the face test but spans each table twice
    monkeypatch.setattr(nilcube, "_kept", {})
    snf = nilcube.smith_normal_form

    def perturbed(M):
        U, D, V = snf(M)
        i, j = [k for k in range(len(D)) if D[k][k] > 1]
        for row in V[:1] if perturb == "shift" else V:
            row[j] = row[j] + 1 if perturb == "shift" else row[i]
        return U, D, V

    monkeypatch.setattr(nilcube, "smith_normal_form", perturbed)
    X = FilteredGroupNilspace(((4, 1),))
    with pytest.raises(PostconditionError, match=message):
        enumerate_morphisms(X, X)
    monkeypatch.setattr(nilcube, "smith_normal_form", snf)
    # a shifted generator is never kept; a repeated one passes the face test, is kept and refuses every call
    kept = cube_set(X, 2)._hom_sets
    assert bool(kept) == (perturb == "repeat")
    if kept:
        with pytest.raises(PostconditionError, match=message):
            enumerate_morphisms(X, X)
    kept.clear()
    assert len(enumerate_morphisms(X, X)) == 16


# the carriers on which the digit maps must equal the rank-lookup oracles
ORACLE_CARRIERS = [
    (((2, 1), (3, 1)), 0),
    (((2, 1), (3, 1)), 1),
    (((2, 1), (3, 1)), 2),
    (((2, 1), (3, 1)), 3),
    (((2, 1), (3, 1)), 4),
    (((2, 1), (5, 1)), 3),
    (((2, 2), (3, 1)), 2),
    (((4, 2),), 3),
    (((2, 3), (2, 1)), 3),
    (((3, 2),), 3),
    (((2, 1), (2, 1), (3, 1)), 3),
    (((6, 1),), 2),
    (((1, 1), (3, 1)), 2),
    (((2, 1), (1, 2)), 3),
]


@pytest.mark.parametrize("factors,dim", ORACLE_CARRIERS)
def test_cube_maps_match_oracle(factors, dim):
    # the generator rows: one per transposition (0 a), and the axis-0 stream
    cs = cube_set(FilteredGroupNilspace(factors), dim)
    assert cs._permuted.shape == (max(dim - 1, 0), cs.size)
    assert np.array_equal(cs._permuted, oracle_permuted(cs, transpositions(dim)))
    blocks = [np.stack(block) for block in concatenations(cs)]
    if dim == 0:
        assert blocks == []
        return
    assert all(block.shape[1] <= 16_384 for block in blocks)
    stream = np.concatenate(blocks, axis=1)
    oracle = oracle_concatenations(cs, 0)
    assert np.array_equal(stream[:, np.lexsort(stream[::-1])], oracle[:, np.lexsort(oracle[::-1])])


def test_permuted_rows_follow_the_coordinate_permutation():
    # on D1(Z3) at dim 3, row a - 1 swaps vertex coordinates 0 and a, so it
    # sends the cube v -> v_0 to v -> v_a
    cs = cube_set(D1Z3, 3)
    verts = list(iproduct((0, 1), repeat=3))
    row = cs.cubes[tuple((v[0],) for v in verts)]
    for a in (1, 2):
        assert cs.members[cs._permuted[a - 1, row]].tolist() == [v[a] for v in verts]


@pytest.mark.parametrize("factors,dim", [(f, d) for f, d in ORACLE_CARRIERS if d >= 2])
def test_axis_zero_additive_table_is_refused_as_not_invariant(factors, dim):
    # rho(q) = g(q(e_0)) - g(q(0)), here with g the element index mod |X|, is
    # additive along axis 0 for every g but not invariant: only the
    # transposition rows can refuse it
    from gowerslab.nilcube import _cocycle_failures

    cs = cube_set(FilteredGroupNilspace(factors), dim)
    order = cs.nilspace.group.order
    Q, zmod = cs.members, np.array([order])
    rho = ((Q[:, 2 ** (dim - 1)] - Q[:, 0]) % order)[:, None]
    for q, qp, qq in concatenations(cs):
        assert not ((rho[qq] - rho[q] - rho[qp]) % order).any()
    assert _cocycle_failures(cs, [rho], zmod) == ["not invariant under coordinate permutations"]


# the oracle carriers of at most 10,000 cubes: the dict oracle takes up to 3 s on
# each, and 6-23 s on each of the two larger ones
SMALL_ORACLE_CARRIERS = [(f, d) for f, d in ORACLE_CARRIERS if cube_set(FilteredGroupNilspace(f), d).size <= 10_000]


def face_sum_members(nilspace, n):
    """Every n-cube of the nilspace, sorted, from the definition alone.

    Per factor D_d(Z_m): every choice of values at the vertices of at most d
    ones, each heavier vertex v then solved, in vertex order, from the
    vanishing sum over the (d+1)-face spanned by the last d+1 coordinates
    set in v, whose other vertices come before v.  A cube satisfies those
    equations, so it is listed once; every table listed must pass all face
    sums.
    """
    nverts = 2**n
    rows = np.zeros((1, nverts), dtype=np.int64)
    for m, d in nilspace.factors:
        low = [v for v in range(nverts) if v.bit_count() <= d]
        values = np.zeros((m ** len(low), nverts), dtype=np.int64)
        values[:, low] = np.indices((m,) * len(low)).reshape(len(low), -1).T
        for v in range(nverts):
            if v.bit_count() > d:
                span = [1 << i for i in range(n) if v >> i & 1][: d + 1]
                for k in range(1, len(span) + 1):
                    for cleared in combinations(span, k):
                        values[:, v] += (-1) ** (k + 1) * values[:, v - sum(cleared)]
                values[:, v] %= m
        rows = (rows[:, None, :] * m + values[None]).reshape(-1, nverts)
    assert face_sums_vanish(nilspace, n, rows).all()
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("factors,dim", ORACLE_CARRIERS)
def test_members_are_the_sorted_face_sum_cubes_at_their_ranks(factors, dim):
    cs = cube_set(FilteredGroupNilspace(factors), dim)
    assert np.array_equal(cs.members, face_sum_members(cs.nilspace, dim))
    assert np.array_equal(cs._rank(cs.members), np.arange(cs.size))


@pytest.mark.parametrize("factors,dim", SMALL_ORACLE_CARRIERS)
def test_position_agrees_with_the_face_sum_oracle(factors, dim):
    # members sit at their own rows; a member changed at one vertex has a row
    # exactly when the face sums still vanish, and that row holds it
    rng = np.random.default_rng(dim)
    cs = cube_set(FilteredGroupNilspace(factors), dim)
    order = cs.nilspace.group.order
    assert np.array_equal(cs.position(cs.members), np.arange(cs.size))
    Q = cs.members[rng.integers(0, cs.size, size=200)].astype(np.int64)
    vertex = rng.integers(0, 2**dim, size=len(Q))
    Q[np.arange(len(Q)), vertex] = (Q[np.arange(len(Q)), vertex] + rng.integers(1, order, size=len(Q))) % order
    rows = cs.position(Q)
    coords = cs.nilspace.group.coords_array
    assert [r >= 0 for r in rows.tolist()] == [oracle_contains(cs, coords[q].tolist()) for q in Q]
    assert np.array_equal(cs.members[rows[rows >= 0]], Q[rows >= 0])


@pytest.mark.parametrize("factors,dim", SMALL_ORACLE_CARRIERS)
def test_cocycle_failures_match_the_all_permutations_oracle(factors, dim):
    # generator checks against every permutation and every axis, on a coboundary
    # (a cocycle), on a nonzero constant and on the coboundary with one cube changed
    from gowerslab.nilcube import _cocycle_failures

    rng = random.Random(repr((factors, dim)))
    X = FilteredGroupNilspace(factors)
    cs = cube_set(X, dim)
    good = coboundary(X, Z3, dim, [(rng.randrange(3),) for _ in range(X.group.order)]).array
    arrays = [good, np.ones_like(good)]
    for _ in range(2):
        perturbed = good.copy()
        perturbed[rng.randrange(len(good))] += rng.randrange(1, 3)
        arrays.append(perturbed % 3)
    expected = [oracle_cocycle_failure(dict(Cocycle._on(cs, Z3, a).table.items()), dim) for a in arrays]
    assert expected[0] is None
    assert [_cocycle_failures(cs, [a], np.array([3]))[0] for a in arrays] == expected
    assert _cocycle_failures(cs, arrays, np.array([3])) == expected


def test_is_cocycle_memory_is_bounded():
    # D2(Z4) at dim 3: 16,384 cubes and 16,384 * 64 = 1,048,576 adjacent pairs
    # along axis 0, 12 MB as stored int32 triples; the check gathers two
    # potential rows per cube instead
    X = FilteredGroupNilspace(((4, 2),))
    Z5 = FinAbGroup((5,))
    rho = coboundary(X, Z5, 3, np.random.default_rng(5).integers(0, 5, size=(4, 1)))
    tracemalloc.start()
    try:
        assert is_cocycle(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the certificates on private cube sets, and the kept cube sets


def _corrupted(cs, vertex, x, y):
    """A private copy of cs with its members, whose rank table has the
    entries of elements x and y at ``vertex`` swapped."""
    from gowerslab.nilcube import CubeSet

    T = cs._rank_table.copy()
    T[vertex, [x, y]] = T[vertex, [y, x]]
    corrupted = CubeSet(cs.nilspace, cs.dim)
    corrupted.__dict__.update(members=cs.members, _rank_table=T)
    return corrupted


def _rank_table_swaps(cs, seed):
    """(vertex, x, y) swaps of the rank table: none, at the root (a lower
    vertex), at e_0 (an upper vertex; a low digit of every factor) and at
    random.  Elements 0 and 1 differ in a coordinate of order > 1."""
    rng = np.random.default_rng(seed)
    order = cs.nilspace.group.order
    at_random = (int(rng.integers(2**cs.dim)), *rng.integers(0, order, size=2).tolist())
    return [(0, 0, 0), (0, 0, 1), (2 ** (cs.dim - 1), 0, 1), at_random]


@pytest.mark.parametrize("factors,dim", [(f, d) for f, d in ORACLE_CARRIERS if d >= 1])
def test_face_key_certificate_agrees_with_the_vertex_table_comparison(factors, dim):
    # the rank table is corrupted by swapping two of its entries at one vertex:
    # at a lower vertex the joined rows change their lower halves, at an upper
    # vertex only their upper halves, so only the upper-half key can object;
    # the stream must fail exactly when the vertex tables of its triples,
    # compared as the certificate once did, are wrong
    from gowerslab.nilcube import CubeSet

    cs = CubeSet(FilteredGroupNilspace(factors), dim)
    q, qp, _ = np.concatenate([np.stack(block) for block in concatenations(cs)], axis=1)
    Q, half = cs.members, 2 ** (dim - 1)
    for vertex, x, y in _rank_table_swaps(cs, dim):
        corrupted = _corrupted(cs, vertex, x, y)
        joined = np.concatenate([Q[q, :half], Q[qp, half:]], axis=1)
        tables_agree = (Q[corrupted._rank(joined)] == joined).all()
        try:
            list(concatenations(corrupted))
            certified = True
        except PostconditionError as e:
            assert str(e) == "concatenation left the cube set"
            certified = False
        assert certified == tables_agree == np.array_equal(corrupted._rank_table, cs._rank_table)


def test_permutation_certificate_fires_on_corrupted_transposition_weights():
    # the rank table's rows at the vertices e_1 and e_2 swapped: the tables
    # permuted by (0 1) are ranked with the weights of the wrong vertices
    from gowerslab.nilcube import CubeSet

    cs = CubeSet(D1Z3, 3)
    T = cs._rank_table.copy()
    T[[2, 1]] = T[[1, 2]]
    cs.members
    cs.__dict__["_rank_table"] = T
    with pytest.raises(PostconditionError, match="permutation left the cube set"):
        cs._permuted


def test_equal_nilspaces_share_one_cube_set():
    a = cube_set(FilteredGroupNilspace(((2, 1), (3, 1))), 2)
    assert cube_set(FilteredGroupNilspace([(2, 1), (np.int64(3), 1)]), 2) is a
    assert cube_set(FilteredGroupNilspace(((2, 1), (3, 1))), 2, cap=10**6) is not a
    assert cube_set(FilteredGroupNilspace(((2, 1), (3, 1))), 3) is not a


def test_cached_cube_arrays_reject_writes():
    cs = cube_set(D1Z2.product(D2Z3), 3)
    cached = [cs.members, cs._rank_table, cs._permuted, *cs._potential]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    with pytest.raises(TypeError):
        cs.cubes[next(iter(cs.cubes))] = 0
    assert list(concatenations(cs))


def test_a_small_cap_still_raises_after_a_larger_cap_build():
    X = FilteredGroupNilspace(((2, 1), (5, 1)))
    assert cube_set(X, 2).size == 1_000 and len(cube_set(X, 2).members) == 1_000
    with pytest.raises(CapExceeded):
        cube_set(X, 2, cap=999).members
    assert len(cube_set(X, 2, cap=1_000).members) == 1_000


def test_a_cube_set_over_the_budget_is_built_but_not_kept(monkeypatch):
    import gowerslab.nilcube as nilcube

    monkeypatch.setattr(nilcube, "_kept", {})
    monkeypatch.setattr(nilcube, "_KEPT_ENTRIES", 215 * 4)
    X = D1Z2.product(D1Z3)  # 216 cubes of 4 vertices at dim 2
    a, b = cube_set(X, 2), cube_set(X, 2)
    assert a is not b and not nilcube._kept
    assert np.array_equal(a.members, nilcube.CubeSet(X, 2).members)
    assert is_cocycle(coboundary(X, Z3, 2, [(x % 3,) for x in range(6)]))


def test_a_cube_set_let_go_by_the_budget_is_rebuilt_identically(monkeypatch):
    import gowerslab.nilcube as nilcube

    monkeypatch.setattr(nilcube, "_kept", {})
    monkeypatch.setattr(nilcube, "_KEPT_ENTRIES", 216 * 4 + 36 * 2)
    X = D1Z2.product(D1Z3)
    first = cube_set(X, 2)  # 864 entries
    arrays = [first.members, first._rank_table, first._permuted, *first._potential]
    small = cube_set(X, 1)  # 72 entries: both fit
    assert cube_set(X, 2) is first and cube_set(X, 1) is small
    cube_set(D1Z3, 2)  # 27 * 4 entries: lets the least recently used, dimension 2, go
    assert list(nilcube._kept) == [(X, 1, 2_000_000), (D1Z3, 2, 2_000_000)]
    assert sum(cs.size << cs.dim for cs in nilcube._kept.values()) <= nilcube._KEPT_ENTRIES
    again = cube_set(X, 2)
    assert again is not first
    for a, b in zip(arrays, [again.members, again._rank_table, again._permuted, *again._potential]):
        assert np.array_equal(a, b)
    assert [np.stack(b).tolist() for b in concatenations(again)] == [
        np.stack(b).tolist() for b in concatenations(first)
    ]


def _orbit(cs, i):
    """The rows of cube i under every permutation of the vertex coordinates."""
    orbit = {i}
    while len(grown := orbit | set(cs._permuted[:, sorted(orbit)].ravel().tolist())) > len(orbit):
        orbit = grown
    return sorted(orbit)


@pytest.mark.parametrize("factors,dim", ORACLE_CARRIERS)
def test_potential_check_agrees_with_the_stream(factors, dim):
    # verdicts and messages of the potential rows against every concatenation
    # of the stream: a coboundary, 30 single-entry corruptions, each also
    # spread over its permutation orbit (invariant, so only additivity can
    # refuse it), and one random table
    from gowerslab.nilcube import _cocycle_failures

    X, Z = FilteredGroupNilspace(factors), FinAbGroup((4, 3))
    cs = cube_set(X, dim)
    rng = np.random.default_rng(len(factors) * 10 + dim)
    good = coboundary(X, Z, dim, rng.integers(0, 12, size=(X.group.order, 2))).array
    arrays = [good, rng.integers(0, 12, size=good.shape) % Z.moduli]
    for _ in range(30):
        i, delta = int(rng.integers(len(good))), rng.integers(1, 4, size=2)
        for rows in ([i], _orbit(cs, i)):
            bad = good.copy()
            bad[rows] += delta
            arrays.append(bad % Z.moduli)
    expected = [stream_cocycle_failures(cs, [a], Z.moduli)[0] for a in arrays]
    assert expected[0] is None
    assert [_cocycle_failures(cs, [a], Z.moduli)[0] for a in arrays] == expected
    if dim >= 1:
        assert "not additive under concatenation" in expected


def _non_member(cs, q):
    """q with its last vertex changed so that it is not a cube, or None."""
    for x in range(cs.nilspace.group.order):
        table = q.copy()
        table[-1] = x
        if cs.position(table[None])[0] < 0:
            return table
    return None


@pytest.mark.parametrize("factors,dim", [(f, d) for f, d in ORACLE_CARRIERS if d >= 1])
def test_potential_build_refuses_a_set_not_closed_under_concatenation(factors, dim):
    from gowerslab.nilcube import CubeSet

    X = FilteredGroupNilspace(factors)
    Q = cube_set(X, dim).members
    rng = np.random.default_rng(dim)
    i = int(rng.integers(len(Q)))
    damaged = [np.delete(Q, i, axis=0)]
    table = _non_member(cube_set(X, dim), Q[i])
    if table is not None:
        replaced = Q.copy()
        replaced[i] = table
        damaged.append(replaced[np.lexsort(replaced.T[::-1])])
    assert table is not None or all(d >= dim for _, d in factors)
    for members in damaged:
        cs = CubeSet(X, dim)
        cs.__dict__["members"] = members
        with pytest.raises(PostconditionError, match="concatenation left the cube set"):
            cs._potential


@pytest.mark.parametrize("factors,dim", [(f, d) for f, d in ORACLE_CARRIERS if d >= 1])
def test_potential_certificate_fires_on_a_corrupted_rank_map(factors, dim):
    # the rank table swaps two entries at one vertex: at the root it moves the
    # rows of (r(a), a), (r(a), b) and (b, b) looked up for members with root
    # 0 or 1, at e_0 those of the members with 0 or 1 there; the build must
    # refuse every swap that changes the table, and give the same rows when
    # none does
    from gowerslab.nilcube import CubeSet

    cs = CubeSet(FilteredGroupNilspace(factors), dim)
    ra, rb = cs._potential
    for vertex, x, y in _rank_table_swaps(cs, dim):
        corrupted = _corrupted(cs, vertex, x, y)
        if np.array_equal(corrupted._rank_table, cs._rank_table):
            assert all(map(np.array_equal, corrupted._potential, (ra, rb)))
        else:
            with pytest.raises(PostconditionError, match="concatenation left the cube set"):
                corrupted._potential


def test_averaging_classes_are_kept_read_only_and_match_np_unique():
    # D1(Z2) x D1(Z3) x D1(Z5) at dim 2 split after each factor
    X = FilteredGroupNilspace(((2, 1), (3, 1), (5, 1)))
    cs = cube_set(X, 2)
    for split in (1, 2):
        y2 = FilteredGroupNilspace(X.factors[split:])
        n2 = cube_set(y2, 2).size
        for rooted in (False, True):
            classes = cs._classes(split, rooted)
            assert cs._classes(split, rooted) is classes
            cls, order, starts, counts = classes
            projected = cube_set(y2, 2).position(cs.members % y2.group.order)
            keys = projected + rooted * (cs.members[:, 0] // y2.group.order) * n2
            _, fresh, fresh_counts = np.unique(keys, return_inverse=True, return_counts=True)
            assert np.array_equal(cls, fresh) and np.array_equal(counts, fresh_counts)
            assert np.array_equal(order, np.argsort(fresh, kind="stable"))
            assert np.array_equal(starts, np.cumsum(counts) - counts)
            for a in classes:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]
    assert sorted(cs._class_sets) == [(1, False), (1, True), (2, False), (2, True)]


def test_split_on_279936_cubes():
    # D2(Z3) x D2(Z2) into Z2 at k = 2: the carrier of dimension 3 holds
    # 279,936 cubes and about 61 M concatenations along axis 0
    rho, _, _ = random_cocycle(random.Random(83), D2Z3, D2Z2, FinAbGroup((2,)), 3)
    assert rho.carrier.size == 279_936
    result = split_cocycle(rho, 1)
    assert not result.residual.array.any()
