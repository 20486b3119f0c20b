"""Host-Kra cube sets on filtered abelian group nilspaces, and cocycles.

A filtered group nilspace is a product of cyclic factors, each carrying a
degree: the n-dimensional cubes are the maps q: {0,1}^n -> group whose
j-th coordinate has vanishing alternating sums over every (d_j+1)-face.
Equivalently (checked exhaustively in the suite) the j-th coordinate of a
cube is a polynomial of degree <= d_j in the 0/1 vertex coordinates, which
is how cube sets are enumerated here: one coefficient in Z_{m_j} per
vertex-subset of size <= d_j, so enumeration is complete and duplicate
free without filtering all |X|^(2^n) maps.

Storage.  An element is its row-major int index (``FinAbGroup.index_of``).
A cube set is the sorted ``(ncubes, 2^n)`` array of element indices at the
vertices of {0,1}^n in lexicographic order (0...0 first); the root of a cube
is its value at vertex 0^n.  A row-major index grows with the lexicographic
order of the coordinates, so the rows sort as the cubes do as tuples of
coordinate vectors.  A cube is its coefficient digits: the Moebius
inversion of coordinate j mod m_j gives the polynomial coefficients, those
of degree <= d_j are the digits, and a table is a cube exactly when those of
degree > d_j vanish.  Its rank is its digits in mixed radix, and its row is
found by rank.  Each ``CubeSet`` keeps the digit table of its members
(built in blocks of ``_BLOCK`` rows) and derives its index maps from it by
digit arithmetic: the row of every cube under each transposition (0 a) of
vertex coordinates (n - 1 entries per cube, each row certified against the
permuted vertex tables), and two potential rows per cube for additivity
along axis 0.  A cube is the pair (a, b) of its lower and upper axis-0 faces,
and these pairs are an equivalence relation on faces; the potential rows are
those of (r(a), a) and (r(a), b), with r(a) the least face of a's class, and
their build certifies on the vertex tables that the members are the full
relation.  A cocycle, or any Z-valued function on cubes, is an ``(ncubes,
ncoords(Z))`` array of residues in carrier order, so the checks below are
gathers and compares against those maps, and nothing but the members, their
digits and ranks, the transposition and potential rows and the averaging
classes grows with the carrier.

Kept cube sets.  ``cube_set`` returns one shared ``CubeSet`` per (nilspace,
n, cap), so a process builds and certifies each set's members, digits,
ranks, transposition and potential rows once, and the classes of each
average it is asked for.  The sets are kept in least-recently-used order
while their vertex entries (ncubes * 2^n each) total at most
``_KEPT_ENTRIES``; a larger set is built and returned but not kept.  Every
array a set caches is read-only, so no caller can change a shared set.
Nothing computed from a caller's data is kept: each morphism candidate,
cocycle table, average and split residual is checked in full on every call.

Cocycles are group-valued functions on C^{k+1}(X) that are additive under
concatenation of adjacent cubes (along every coordinate) and invariant
under coordinate permutations.  Both are certified on generators: the
transpositions (0 a) generate all permutations, and a concatenation along
axis a is (0 a) applied to one along axis 0, so an invariant function that
is additive along axis 0 is additive along every axis.  On a product
X = Y1 x Y2 with gcd(|Y1|, |Z|) = 1 two averaging operators apply the
coprime average (the unique z with N z = sum) to the first-factor cubes:

    factor_average(rho)(q1 x q2)        averages rho(q1' x q2) over all
                                        q1' in C^{k+1}(Y1),
    rooted_factor_average(rho)(q1 x q2) averages only over the q1' rooted
                                        at q1(0^{k+1}).

The full average is again a cocycle and factors through the second
projection; the rooted average need not be a cocycle, but the difference
(rooted minus full) depends only on the root of the cube, which defines a
point function g with  rho - factor_average(rho) = sigma_{k+1}(g o q):
the coboundary split.  All of this is verified exactly in integer
arithmetic by ``split_cocycle``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product as iproduct
from math import comb, gcd, isqrt, prod
from types import MappingProxyType

import numpy as np

from .errors import CapExceeded, CoprimalityError, PostconditionError, cap_power
from .groups import FinAbGroup, GroupElement, _integer

__all__ = [
    "FilteredGroupNilspace",
    "CubeSet",
    "Cocycle",
    "ValueTable",
    "SplitResult",
    "cube_set",
    "is_morphism",
    "enumerate_morphisms",
    "avg_coprime",
    "coboundary",
    "is_cocycle",
    "factor_average",
    "rooted_factor_average",
    "split_cocycle",
]

# rows per block of cube lookups and digits, and candidate morphism images
_BLOCK = 16_384
# total vertex entries (ncubes * 2^n) of the cube sets ``cube_set`` keeps
_KEPT_ENTRIES = 1 << 22
_CUBE_CAP = 2_000_000  # the default cap on the cubes of one cube set


@lru_cache(maxsize=None)
def _vertices(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(iproduct((0, 1), repeat=n))


@lru_cache(maxsize=None)
def _perm_indices(dim: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """out[i] = index of the vertex obtained by permuting vertex i's coordinates."""
    verts = _vertices(dim)
    index = {v: i for i, v in enumerate(verts)}
    return tuple(index[tuple(v[perm[i]] for i in range(dim))] for v in verts)


@lru_cache(maxsize=None)
def _signs(dim: int) -> tuple[int, ...]:
    return tuple(-1 if sum(v) % 2 else 1 for v in _vertices(dim))


def _index_dtype(bound: int):
    """The narrowest of int32 and int64 that holds 0 .. bound - 1."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _blockwise(fn, Q: np.ndarray) -> np.ndarray:
    """fn applied to Q in blocks of at most ``_BLOCK`` rows, results concatenated."""
    return np.concatenate([fn(Q[s : s + _BLOCK]) for s in range(0, max(len(Q), 1), _BLOCK)])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FilteredGroupNilspace:
    """Product of cyclic factors (order, degree) with Host-Kra cubes."""

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors):
        factors = tuple((_integer(m), _integer(d)) for m, d in factors)
        if any(m < 1 or d < 1 for m, d in factors):
            raise ValueError("factors need order >= 1 and degree >= 1")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def uniform(cls, G: FinAbGroup, degree: int) -> "FilteredGroupNilspace":
        """D_degree(G): every factor at the same degree."""
        return cls(tuple((m, degree) for m in G.orders))

    @cached_property
    def group(self) -> FinAbGroup:
        return FinAbGroup(tuple(m for m, _ in self.factors))

    @property
    def step(self) -> int:
        return max((d for _, d in self.factors), default=1)

    def product(self, other: "FilteredGroupNilspace") -> "FilteredGroupNilspace":
        return FilteredGroupNilspace(self.factors + other.factors)

    def __repr__(self):
        inner = " x ".join(f"D{d}(Z{m})" for m, d in self.factors)
        return f"Nilspace[{inner or '1'}]"


class CubeSet:
    """The n-dimensional cube set of a filtered group nilspace.

    ``members`` is the sorted ``(ncubes, 2^n)`` array of element indices;
    ``position`` finds the rows of given vertex tables.  Ranking, membership
    and the ``size`` formula need no enumeration, so a cube set too large
    to enumerate can still test membership.  The cocycle maps come from the
    digit table of the members and cover generators only, as the
    transpositions (0 a) generate every permutation and carry axis 0 to
    every axis: ``_permuted`` holds the row of every cube under each (0 a),
    certified on the vertex tables, and ``_potential`` the rows that certify
    additivity along axis 0 with two gathers per cube.  ``_classes`` holds
    the classes of the coprime averages, per split, and ``_varying`` the
    members that the morphism face test sums over.

    ``cube_set`` shares instances, so every array cached here is read-only;
    build one directly for a private one.
    """

    def __init__(self, nilspace: FilteredGroupNilspace, dim: int, *, cap: int = _CUBE_CAP):
        self.nilspace = nilspace
        self.dim = dim
        self.cap = cap
        self._class_sets: dict[tuple[int, bool], tuple[np.ndarray, ...]] = {}

    @cached_property
    def size(self) -> int:
        total = 1
        n = self.dim
        for m, d in self.nilspace.factors:
            exp = sum(comb(n, i) for i in range(min(d, n) + 1))
            total *= m**exp
        return total

    @cached_property
    def _digits(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per factor (m, d): m, and the vertex positions 1_S of the subsets S
        with |S| <= d (the rank digits, in monomial order) and with |S| > d."""
        n = self.dim
        out = []
        for m, d in self.nilspace.factors:
            low = [
                sum(1 << (n - 1 - i) for i in S)
                for size in range(min(d, n) + 1)
                for S in combinations(range(n), size)
            ]
            high = [v for v in range(2**n) if v.bit_count() > d]
            out.append((m, _read_only(np.array(low, dtype=np.intp)), _read_only(np.array(high, dtype=np.intp))))
        return out

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per rank digit, leading digit first: its factor j, its vertex
        position 1_S, its modulus m_j and its weight, the product of the
        moduli of the digits after it."""
        cols = [(j, pos, m) for j, (m, low, _) in enumerate(self._digits) for pos in low.tolist()]
        mods = [m for _, _, m in cols]
        table = [c + (prod(mods[t + 1 :]),) for t, c in enumerate(cols)]
        j, pos, m, w = _read_only(np.array(table, dtype=np.int64).reshape(len(table), 4)).T
        return j, pos, m, w

    @cached_property
    def _coords(self) -> np.ndarray:
        """(ncoords, |X|): coordinate j of every element index."""
        return _read_only(np.ascontiguousarray(self.nilspace.group.coords_array.T))

    def _coefficients(self, Q: np.ndarray) -> np.ndarray:
        """Moebius inversion of the rows of Q, unreduced, as (ncoords, 2^n, rows):
        entry [j, 1_S, i] is sum_{T <= S} (-1)^(|S|-|T|) Q[i](1_T)_j."""
        A = self._coords[:, Q.T]
        cube = A.reshape((len(A),) + (2,) * self.dim + (len(Q),))
        for i in range(self.dim):
            lead = (slice(None),) * (1 + i)
            cube[lead + (1,)] -= cube[lead + (0,)]
        return A

    def _rank_digits(self, A: np.ndarray) -> np.ndarray:
        """(ndigits, columns): the rank digits of each column of A."""
        j, pos, m, _ = self._radix
        return A[j, pos] % m[:, None]

    def _rank(self, A: np.ndarray) -> np.ndarray:
        """Coefficient rank of each column of A: the digits of factor 0 lead."""
        return self._radix[3] @ self._rank_digits(A)

    def _is_cube(self, A: np.ndarray) -> np.ndarray:
        ok = np.ones(A.shape[-1], dtype=bool)
        for j, (m, _, high) in enumerate(self._digits):
            if len(high):
                ok &= ~(A[j, high] % m).any(axis=0)
        return ok

    @cached_property
    def members(self) -> np.ndarray:
        """All cubes, sorted; duplicate-free by the coefficient bijection."""
        if self.size > self.cap:
            raise CapExceeded(f"cube set of size {self.size} exceeds cap {self.cap}")
        nverts = 2**self.dim
        dtype = _index_dtype(self.nilspace.group.order)
        vertex = np.arange(nverts)
        rows = np.zeros((1, nverts), dtype=dtype)
        stride = self.nilspace.group.order
        for m, low, _ in self._digits:
            stride //= m
            # monomial prod_{i in S} v_i at vertex v: 1 exactly when 1_S <= v bitwise
            monomials = (np.bitwise_and.outer(low, vertex) == low[:, None]).astype(np.int64)
            coeffs = np.indices((m,) * len(low)).reshape(len(low), -1).T
            tables = ((coeffs @ monomials) % m * stride).astype(dtype)
            rows = (rows[:, None, :] + tables[None, :, :]).reshape(-1, nverts)
        rows = rows[np.lexsort(rows.T[::-1])]
        if len(rows) != self.size or (rows[1:] == rows[:-1]).all(axis=1).any():
            raise PostconditionError("cube enumeration is not duplicate-free")
        return _read_only(rows)

    @cached_property
    def _varying(self) -> np.ndarray:
        """The members that vary along every axis, in member order: along an axis of constancy
        each vertex pairs with one of opposite sign at the same point, so the signed sum is 0."""
        Q = self.members
        keep = np.ones(len(Q), dtype=bool)
        for i in range(self.dim):
            halves = Q.reshape(len(Q), 2**i, 2, -1)  # axis 2 is coordinate i of the vertex
            keep &= (halves[:, :, 0] != halves[:, :, 1]).any(axis=(1, 2))
        return _read_only(Q[keep])

    @cached_property
    def _digit_table(self) -> np.ndarray:
        """(ncubes, ndigits): the rank digits of every member, in carrier order."""
        dtype = np.min_scalar_type(int(self._radix[2].max(initial=1)) - 1)
        return _read_only(_blockwise(lambda B: self._rank_digits(self._coefficients(B)).T.astype(dtype), self.members))

    @cached_property
    def _ranks(self) -> np.ndarray:
        """Coefficient rank of every member, in carrier order."""
        return _read_only(_blockwise(lambda D: D @ self._radix[3], self._digit_table))

    @cached_property
    def _row_of_rank(self) -> np.ndarray:
        """The row of the member of each rank, or -1 for a rank no member has."""
        rows = np.full(self.size, -1, dtype=_index_dtype(self.size))
        rows[self._ranks] = np.arange(len(self._ranks))
        return _read_only(rows)

    def position(self, Q: np.ndarray) -> np.ndarray:
        """Row in ``members`` of each row of Q, or -1 where it is not a cube."""

        def rows(B):
            A = self._coefficients(B)
            return np.where(self._is_cube(A), self._row_of_rank[self._rank(A)], -1)

        return _blockwise(rows, Q)

    @cached_property
    def cubes(self) -> dict:
        """Each cube as a tuple of vertex coordinate vectors, mapped to its row.

        A read-only mapping, in carrier order.  This is the boundary format, for callers and
        tables keyed by tuples; no computation in this module reads it.
        """
        coords = self._coords.T[self.members].tolist()
        return MappingProxyType({tuple(map(tuple, q)): i for i, q in enumerate(coords)})

    @cached_property
    def _digit_column(self) -> dict:
        """(factor j, vertex position 1_S) -> column of that digit in the digit
        table, in column order."""
        j, pos, _, _ = self._radix
        return {key: t for t, key in enumerate(zip(j.tolist(), pos.tolist()))}

    @cached_property
    def _permuted(self) -> np.ndarray:
        """(max(n - 1, 0), ncubes): row a - 1 holds the row of every cube with
        its vertex coordinates 0 and a swapped.

        These transpositions (0 a) generate the symmetric group, so invariance
        under them is invariance under every permutation.  The cube q o p
        (vertex v to q(v[p[0]], ..., v[p[n-1]])) has the digit c_q(S) at
        p(S), so its rank is the digit table times the weights taken at p(S).
        ``_perm_indices(n, p)`` sends 1_{p(S)} to 1_S, so scattering the
        weights through it gives them.
        """
        n, Q, D, column = self.dim, self.members, self._digit_table, self._digit_column
        w = self._radix[3]
        rows = np.empty((max(n - 1, 0), len(Q)), dtype=_index_dtype(self.size))
        for a in range(1, n):
            idx = _perm_indices(n, (a, *range(1, a), 0, *range(a + 1, n)))
            weights = np.empty_like(w)
            weights[[column[j, idx[b]] for j, b in column]] = w
            rows[a - 1] = self._row_of_rank[_blockwise(lambda B: B @ weights, D)]
            for s in range(0, len(Q), _BLOCK):
                if not np.array_equal(Q[rows[a - 1, s : s + _BLOCK]], Q[s : s + _BLOCK][:, idx]):
                    raise PostconditionError("permutation left the cube set")
        return _read_only(rows)

    @cached_property
    def _potential(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of (r(a), a) and (r(a), b) for every member (a, b), n >= 1.

        A member is the pair of its lower and upper axis-0 faces, and these
        pairs are an equivalence relation on faces: b has the digits c(S) +
        c(S u {0}) of the S without 0, so a ~ b exactly when they agree where
        S u {0} has no digit.  r(a), the least face of the class, keeps a's
        digits there and is 0 elsewhere, so it depends on a alone.  A table is
        additive under every concatenation exactly when v(a, b) = v(r, b) -
        v(r, a) with r = r(a): (r, a) o (a, b) = (r, b), and these telescope.

        Certified on the vertex tables, or "concatenation left the cube set":
        every looked-up row has the halves asked for, so r agrees on both
        halves of every member; each upper face is the lower face of the member
        (b, b); and each face is the lower face of as many members as its class
        has faces (equal lower faces are adjacent, as the members are sorted),
        so the members are the full relation.
        """
        Q, D, column, half = self.members, self._digit_table, self._digit_column, 2 ** (self.dim - 1)
        jj, pos, m, w = self._radix
        face = np.flatnonzero(~pos & half)
        up = np.array([column.get((j, p | half), -1) for j, p in zip(jj[face].tolist(), pos[face].tolist())], dtype=np.intp)
        free = up >= 0
        rooted = np.where(free, w[up], w[face])

        def ranks(B):
            lower = B[:, face].astype(np.int64)
            upper = (lower + np.where(free, B[:, up], 0)) % m[face]
            return np.stack([lower @ rooted, upper @ rooted, upper @ w[face]], axis=1)

        R = _blockwise(ranks, D)
        ra, rb, same = (self._row_of_rank[R[:, i]] for i in range(3))
        lower, upper = Q[:, :half], Q[:, half:]
        first = np.ones(len(Q), dtype=bool)
        first[1:] = (lower[1:] != lower[:-1]).any(axis=1)
        faces = np.cumsum(first) - 1
        roots = faces[ra][first]
        if not (
            np.array_equal(Q[ra, half:], lower)
            and np.array_equal(Q[rb, half:], upper)
            and np.array_equal(Q[ra, :half], Q[rb, :half])
            and np.array_equal(Q[same, :half], upper)
            and np.array_equal(np.bincount(faces), np.bincount(roots)[roots])
        ):
            raise PostconditionError("concatenation left the cube set")
        return _read_only(ra), _read_only(rb)

    def _classes(self, split: int, rooted: bool) -> tuple[np.ndarray, ...]:
        """The classes of cubes q1 x q2 that the coprime average over the first
        ``split`` factors sums over: those sharing q2 and, if ``rooted``, the
        root of q1.  Kept per (split, rooted) and read-only, as (the class of
        each cube, the cubes in stable class order, class starts, class sizes).
        """
        if (split, rooted) not in self._class_sets:
            y2 = FilteredGroupNilspace(self.nilspace.factors[split:])
            n2 = CubeSet(y2, self.dim).size
            keys = self._ranks % n2
            if rooted:
                keys += (self.members[:, 0] // y2.group.order).astype(np.int64) * n2
            _, cls, counts = np.unique(keys, return_inverse=True, return_counts=True)
            arrays = (cls, np.argsort(cls, kind="stable"), np.cumsum(counts) - counts, counts)
            self._class_sets[split, rooted] = tuple(_read_only(a.astype(_index_dtype(self.size))) for a in arrays)
        return self._class_sets[split, rooted]


# the kept cube sets by (nilspace, n, cap), least recently used first
_kept: dict[tuple, CubeSet] = {}


def cube_set(X: FilteredGroupNilspace, n: int, *, cap: int = _CUBE_CAP) -> CubeSet:
    """The n-dimensional cube set of X with this cap: one shared instance per
    (X, n, cap) while it is kept (see "Kept cube sets" above)."""
    if n < 0:
        raise ValueError("cube dimension must be nonnegative")
    key = (X, n, cap)
    cs = _kept.pop(key, None)
    if cs is None:
        cs = CubeSet(X, n, cap=cap)
        spare = _KEPT_ENTRIES - (cs.size << n)
        if spare < 0:
            return cs
        while sum(kept.size << kept.dim for kept in _kept.values()) > spare:
            del _kept[next(iter(_kept))]
    _kept[key] = cs
    return cs


# ---------------------------------------------------------------------------
# morphisms


def _into_factor(T: np.ndarray, X: FilteredGroupNilspace, m: int, d: int) -> np.ndarray:
    """The rows of T (residue tables mod m, one value per X element index)
    whose alternating sum over every (d+1)-cube of X is 0 mod m.

    Only the cubes that vary along every axis can fail (``CubeSet._varying``).
    They stream in blocks of at most ``_BLOCK`` images, and a row is dropped
    at its first failing block.  A sum is at most 2^d (m - 1) in magnitude,
    so it is taken in int64 where that fits and in Python ints above.  A
    cube of more vertices than the cube-set cap is refused before any size.
    """
    if d + 1 >= _CUBE_CAP.bit_length():  # 2^(d+1) > _CUBE_CAP
        raise CapExceeded(f"a {d + 1}-cube has 2^{d + 1} vertices, more than the cube-set cap {_CUBE_CAP}")
    dtype = np.int64 if (m - 1) << d < 2**63 else object
    Q, signs = cube_set(X, d + 1)._varying, np.array(_signs(d + 1), dtype=dtype)
    T, start = T.astype(dtype, copy=False), 0
    while len(T) and start < len(Q):
        stop = start + max(1, _BLOCK // len(T))
        T = T[(T[:, Q[start:stop]] @ signs % m == 0).all(axis=1)]
        start = stop
    return T


def is_morphism(table, X: FilteredGroupNilspace, Y: FilteredGroupNilspace) -> bool:
    """Whether the map given by ``table`` sends cubes of X to cubes of Y.

    ``table`` holds one value per X element index (row-major), each value
    ncoords(Y) integers; any other length is refused with ValueError.  A
    cube of Y is a cube of each factor D_d(Z_m) in its coordinate, and a
    map into D_d(Z_m) is a cube exactly when each of its (d+1)-faces has
    alternating sum 0 mod m.  Every face of a cube of X is a cube of X, and
    below dimension d+1 every map is a cube of D_d(Z_m), so coordinate j of
    the table is checked on the (d_j+1)-cubes of X alone.
    """
    GX, GY = X.group, Y.group
    if len(table) != GX.order:
        raise ValueError(f"a morphism table needs one value per element of X ({GX.order} expected)")
    if any(len(v) != GY.ncoords for v in table):
        raise ValueError(f"each value of a morphism table needs ncoords(Y) = {GY.ncoords} coordinates")
    T = np.array([[c % m for c, m in zip(v, GY.orders)] for v in table], dtype=object)
    return all(len(_into_factor(T[None, :, j], X, m, d)) for j, (m, d) in enumerate(Y.factors))


def enumerate_morphisms(X: FilteredGroupNilspace, Y: FilteredGroupNilspace, *, cap: int = 10**6) -> list[tuple]:
    """All morphisms X -> Y as value tables, in the row-major order of the
    value tuples, at desk scale.

    The cubes of a product are the products of cubes, so Hom(X, Y) is the
    product of the Hom(X, D_d(Z_m)) over the factors of Y.  Each is found
    by the face test of ``is_morphism`` on its m^|X| tables, taken in
    row-major order ``_BLOCK`` at a time.  ``cap`` bounds |Y|^|X|, which
    bounds the sum of the m^|X|.
    """
    GY, n = Y.group, X.group.order
    cap_power(GY.order, n, cap, "|Y|^|X|")
    index = np.zeros((1, n), dtype=np.int64)  # the tables as Y element indices, factor by factor
    for m, d in Y.factors:
        weights = m ** np.arange(n - 1, -1, -1)
        blocks = (np.arange(s, min(s + _BLOCK, m**n))[:, None] // weights % m for s in range(0, m**n, _BLOCK))
        index = (index[:, None] * m + np.concatenate([_into_factor(T, X, m, d) for T in blocks])).reshape(-1, n)
    index = index[np.lexsort(index.T[::-1])]
    return [tuple(map(tuple, t)) for t in GY.coords_array[index].tolist()]


# ---------------------------------------------------------------------------
# cocycles


def _inverses(counts, orders) -> list[list[int]]:
    """count^-1 mod each order m of Z, per count, as Python ints; 0 where m = 1.
    Each count must be prime to every order m > 1."""
    return [[pow(int(c), -1, m) if m > 1 else 0 for m in orders] for c in counts]


def avg_coprime(values, count: int, Z: FinAbGroup) -> GroupElement:
    """The unique z in Z with count * z = sum(values); needs gcd(count,|Z|)=1."""
    if gcd(count, Z.order) != 1:
        raise CoprimalityError(f"gcd({count}, |Z|={Z.order}) != 1")
    total = Z.zero
    n = 0
    for v in values:
        total = total + v
        n += 1
    if n != count:
        raise ValueError("count does not match the number of values")
    (inverse,) = _inverses([count], Z.orders)
    return GroupElement(Z, tuple(c * i % m for c, i, m in zip(total.coords, inverse, Z.orders)))


class ValueTable(Mapping):
    """Read-only view of a value array as a mapping key -> GroupElement.

    Row i of ``array`` holds the coordinates of the value at the i-th key;
    ``index()`` gives the dict from keys to rows, in row order, and is asked
    for only when the view is read by key.
    """

    def __init__(self, codomain: FinAbGroup, array: np.ndarray, index):
        self.codomain = codomain
        self.array = array
        self._index = index

    @cached_property
    def _rows(self) -> dict:
        return self._index()

    def __getitem__(self, key) -> GroupElement:
        return GroupElement(self.codomain, tuple(self.array[self._rows[key]].tolist()))

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self.array)

    def values(self) -> list:
        return [GroupElement(self.codomain, tuple(v)) for v in self.array.tolist()]

    def items(self) -> list:
        return list(zip(self._rows, self.values()))


def _value_coords(v, Z: FinAbGroup) -> tuple[int, ...]:
    return v.coords if isinstance(v, GroupElement) else Z.element(v).coords


class Cocycle:
    """Z-valued function on C^dim(X), stored per cube.

    The carrier is the full cube set; ``array`` holds the value at each cube
    as ncoords(Z) residues, in carrier order.  ``table`` is the same data as
    a mapping from cubes (tuples of vertex coordinate vectors) to
    GroupElements of ``codomain``.  ``Cocycle`` accepts either form.
    """

    def __init__(self, nilspace: FilteredGroupNilspace, codomain: FinAbGroup, dim: int, table):
        self.nilspace, self.codomain, self.dim = nilspace, codomain, dim
        if isinstance(table, np.ndarray):
            if table.shape != (self.carrier.size, codomain.ncoords):
                raise ValueError(f"a cocycle array needs shape ({self.carrier.size}, {codomain.ncoords})")
            self.array = table % codomain.moduli
            return
        rows = self.carrier.cubes
        if len(table) != len(rows):
            raise ValueError(f"a cocycle needs one value per cube ({len(rows)} expected)")
        array = np.empty((len(rows), codomain.ncoords), dtype=np.int64)
        for q, v in table.items():
            if q not in rows:
                raise ValueError(f"{q!r} is not a cube of the carrier")
            array[rows[q]] = _value_coords(v, codomain)
        self.array = array

    @classmethod
    def _on(cls, carrier: CubeSet, codomain: FinAbGroup, array: np.ndarray) -> "Cocycle":
        """The cocycle with value rows ``array`` (reduced, carrier order) on ``carrier``."""
        self = cls.__new__(cls)
        self.nilspace, self.codomain, self.dim = carrier.nilspace, codomain, carrier.dim
        self.carrier = carrier
        self.array = array
        return self

    @cached_property
    def carrier(self) -> CubeSet:
        return cube_set(self.nilspace, self.dim)

    @cached_property
    def table(self) -> ValueTable:
        return ValueTable(self.codomain, self.array, lambda: self.carrier.cubes)

    def __call__(self, q) -> GroupElement:
        return self.table[q]


def _sigma(points: np.ndarray, Q: np.ndarray, dim: int, zmod: np.ndarray) -> np.ndarray:
    """Alternating vertex sums sigma_dim(g o q) = sum_v (-1)^|v| g(q(v)), one per row q of Q.

    ``points`` holds the value of g at each element index.
    """
    total = np.zeros((len(Q), points.shape[1]), dtype=np.int64)
    for v, sign in enumerate(_signs(dim)):
        if sign > 0:
            total += points[Q[:, v]]
        else:
            total -= points[Q[:, v]]
    return total % zmod


def _point_values(g, X: FilteredGroupNilspace, Z: FinAbGroup) -> np.ndarray:
    """A point function as its (|X|, ncoords(Z)) value array in element order.

    ``g`` is such an array, a dict from points (GroupElements or coordinate
    tuples) to values, or a sequence of values in element order; a value is
    a GroupElement or a coordinate sequence.
    """
    G = X.group
    if isinstance(g, np.ndarray):
        if g.shape != (G.order, Z.ncoords):
            raise ValueError("point function must be total on the group")
        return g % Z.moduli
    if isinstance(g, dict):
        rows = [G.index_of(k.coords if isinstance(k, GroupElement) else k) for k in g]
        vals = g.values()
    else:
        vals = list(g)
        rows = range(len(vals))
    if len(vals) != G.order or len(set(rows)) != G.order:
        raise ValueError("point function must be total on the group")
    out = np.empty((G.order, Z.ncoords), dtype=np.int64)
    out[list(rows)] = np.array([_value_coords(v, Z) for v in vals], dtype=np.int64).reshape(G.order, Z.ncoords)
    return out


def coboundary(X: FilteredGroupNilspace, Z: FinAbGroup, dim: int, g) -> Cocycle:
    """sigma_dim(g o q): the coboundary cocycle of a point function g; z orders as for the checks."""
    _check_z_order(Z.orders)
    cs = cube_set(X, dim)
    return Cocycle._on(cs, Z, _sigma(_point_values(g, X, Z), cs.members, dim, Z.moduli))


def _cocycle_failures(cs: CubeSet, arrays, zmod: np.ndarray) -> list:
    """Why each value array on ``cs`` fails the cocycle checks, or None where it passes.

    The arrays are checked with their columns side by side: on the
    transposition rows, which stop early only once every array has failed,
    and then on the potential rows of axis 0 in one pass.  A modulus above
    isqrt(2^63 - 1) is refused, as for the averages.
    """
    _check_z_order(zmod)
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
    if cs.dim:
        ra, rb = cs._potential
        note(((v - v[rb] + v[ra]) % mods).any(axis=0), "not additive under concatenation")
    return failures


def is_cocycle(rho: Cocycle, *, raise_on_failure: bool = False) -> bool:
    """Concatenation additivity along every coordinate + permutation invariance,
    checked on generators: the transpositions (0 a) generate every
    permutation and carry concatenations along axis 0 to every axis."""
    failure = _cocycle_failures(rho.carrier, [rho.array], rho.codomain.moduli)[0]
    if failure and raise_on_failure:
        raise PostconditionError(failure)
    return failure is None


def _check_z_order(orders) -> None:
    """Refuse a z order above isqrt(2^63 - 1) = 3,037,000,499 with CapExceeded.

    The coprime average multiplies a residue by an inverse mod m, which
    stays below m^2 and so within int64 exactly up to this bound; the
    cocycle checks hold their sums and differences of residues in int64 too.
    """
    top = max(map(int, orders), default=1)
    if top > isqrt(2**63 - 1):
        raise CapExceeded(f"z order {top} exceeds isqrt(2^63 - 1) = {isqrt(2**63 - 1)}")


def _average(rho: Cocycle, split: int, rooted: bool) -> np.ndarray:
    """Coprime average of rho over each class of ``CubeSet._classes``, per cube,
    on X = Y1 x Y2 with gcd(|Y1|, |Z|) = 1."""
    Z, order1 = rho.codomain, prod(m for m, _ in rho.nilspace.factors[:split])
    if gcd(order1, Z.order) != 1:
        raise CoprimalityError(f"gcd(|Y1|={order1}, |Z|={Z.order}) != 1")
    _check_z_order(Z.orders)
    cls, order, starts, counts = rho.carrier._classes(split, rooted)
    sums = np.add.reduceat(rho.array[order], starts, axis=0) % Z.moduli
    sizes, which = np.unique(counts, return_inverse=True)
    inverse = np.array(_inverses(sizes, Z.orders), dtype=np.int64).reshape(len(sizes), Z.ncoords)
    return (sums * inverse[which] % Z.moduli)[cls]


def factor_average(rho: Cocycle, split: int) -> Cocycle:
    """Coprime average of rho(q1' x q2) over all first-factor cubes q1'.

    The result is a cocycle and factors through the second projection
    (both verified).  The cubes q1' x q2 sharing q2 are those whose
    coefficient rank agrees mod |C^dim(Y2)|, as the digits of Y1 lead.
    """
    out = _factor_average(rho, split)
    if not is_cocycle(out):
        raise PostconditionError("averaged table is not a cocycle")
    return out


def _factor_average(rho: Cocycle, split: int) -> Cocycle:
    """``factor_average`` before its cocycle check."""
    return Cocycle._on(rho.carrier, rho.codomain, _average(rho, split, False))


def rooted_factor_average(rho: Cocycle, split: int) -> ValueTable:
    """Coprime average of rho(q1' x q2) over first-factor cubes rooted at q1(0).

    Not necessarily a cocycle; returned as a raw per-cube table.
    """
    cs = rho.carrier
    return ValueTable(rho.codomain, _average(rho, split, True), lambda: cs.cubes)


@dataclass(frozen=True)
class SplitResult:
    """rho = kappa + sigma(g o q): averaged part plus a coboundary.

    kappa is the factor average of rho and factors through the second
    projection; g maps each point (coordinate tuple) to its value, and
    residual holds rho - kappa - sigma(g o q) per cube.
    """

    kappa: Cocycle
    g: ValueTable
    residual: ValueTable


def split_cocycle(rho: Cocycle, split: int) -> SplitResult:
    """Split rho into its factor average plus the coboundary of g.

    g is the rooted-minus-full average difference.  Verifies, exactly:
    rho is a cocycle; kappa is a cocycle factoring through the second
    projection; the average difference agrees on all cubes sharing a root
    (which defines g); and the residual rho - kappa - sigma(g o q)
    vanishes on every cube.  rho and kappa are checked on one pass of the
    carrier's maps; an input that is not a cocycle is refused with a
    ValueError before any other failure is reported.
    """
    not_cocycle = ValueError("input fails the cocycle checks")
    try:
        kappa = _factor_average(rho, split)
    except CoprimalityError:
        if not is_cocycle(rho):
            raise not_cocycle from None
        raise
    Z, cs, G = rho.codomain, rho.carrier, rho.nilspace.group
    zmod = Z.moduli
    rho_failure, kappa_failure = _cocycle_failures(cs, [rho.array, kappa.array], zmod)
    if rho_failure:
        raise not_cocycle
    if kappa_failure:
        raise PostconditionError("averaged table is not a cocycle")
    eprime = rooted_factor_average(rho, split)
    diff = (eprime.array - kappa.array) % zmod
    roots = cs.members[:, 0]
    g = np.zeros((G.order, Z.ncoords), dtype=np.int64)
    g[roots] = diff
    if not np.array_equal(g[roots], diff):
        raise PostconditionError("root-independence violated")
    residual = (rho.array - kappa.array - _sigma(g, cs.members, rho.dim, zmod)) % zmod
    if residual.any():
        raise PostconditionError("split residual is nonzero")
    points = ValueTable(Z, g, lambda: {x.coords: i for i, x in enumerate(G.elements())})
    return SplitResult(kappa, points, ValueTable(Z, residual, lambda: cs.cubes))
