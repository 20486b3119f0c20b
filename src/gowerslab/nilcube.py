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
coordinate vectors, vertex by vertex and factor by factor.

A cube's row is its rank.  Call (v, j) a low digit when the vertex v has
|v| <= d_j ones.  Any values of coordinate j at the low vertices extend to
exactly one cube (Moebius inversion on that down-set of vertices), and a
value q_j(v) at a vertex with |v| > d_j is fixed by q_j on the subsets of
v, which all come before v.  So two cubes first differ at a low digit, the
sorted order is the mixed-radix order of the low digits (by v, then j), and
the row of q is sum_v T[v, q(v)] for one (2^n, |X|) table T.  Each
``CubeSet`` derives its index maps from T by gathers and certifies them on
the vertex tables: the row of every cube under each transposition (0 a) of
vertex coordinates (n - 1 entries per cube), and two potential rows per
cube for additivity along axis 0.  A cube is the pair (a, b) of its lower
and upper axis-0 faces, and these pairs are an equivalence relation on
faces; the potential rows are those of (r(a), a) and (r(a), b), with r(a)
the least face of a's class, and their build certifies that the members are
the full relation.  A cocycle, or any Z-valued function on cubes, is an
``(ncubes, ncoords(Z))`` array of residues in carrier order, so the checks
below are gathers and compares against those maps, and nothing but the
members, the transposition and potential rows and the averaging classes
grows with the carrier.

Kept cube sets.  ``cube_set`` returns one shared ``CubeSet`` per (nilspace,
n, cap), so a process builds and certifies each set's members,
transposition and potential rows once, and the averaging classes and the
morphism generators (into D_{n-1}(Z_m), per m) that it is asked for.  The
sets are kept in least-recently-used order while their vertex entries
(ncubes * 2^n each) total at most ``_KEPT_ENTRIES``; a larger set is built
and returned but not kept.  Every array a set caches is read-only, so no
caller can change a shared set.  Nothing computed from a caller's data is
kept: each cocycle table, average and split residual is checked in full.

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
from itertools import product as iproduct
from math import comb, gcd, isqrt, prod
from types import MappingProxyType

import numpy as np

from .errors import CapExceeded, CoprimalityError, PostconditionError, cap_power
from .groups import FinAbGroup, GroupElement, _integer, smith_normal_form

__all__ = [
    "FilteredGroupNilspace",
    "CubeSet",
    "Cocycle",
    "ValueTable",
    "SplitResult",
    "cube_set",
    "is_morphism",
    "enumerate_morphisms",
    "coboundary",
    "is_cocycle",
    "factor_average",
    "rooted_factor_average",
    "split_cocycle",
]

# rows per block of cube lookups, of face-test images, and of cubes whose signed rows are reduced at once
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

    ``members`` is the sorted ``(ncubes, 2^n)`` array of element indices,
    and a cube's row is its rank (see "Storage" above): ``_rank`` sums the
    table T over the vertices, and ``position`` finds the rows of given
    vertex tables by comparing each with the member of its rank.  The
    cocycle maps cover generators only, as the transpositions (0 a)
    generate every permutation and carry axis 0 to every axis:
    ``_permuted`` holds the row of every cube under each (0 a), and
    ``_potential`` the rows that certify additivity along axis 0 with two
    gathers per cube.  ``_classes`` holds the classes of the coprime
    averages, per split, and ``_varying`` the members that the morphism
    face test sums over.

    ``cube_set`` shares instances, so every array cached here is read-only;
    build one directly for a private one.
    """

    def __init__(self, nilspace: FilteredGroupNilspace, dim: int, *, cap: int = _CUBE_CAP):
        if dim >= cap.bit_length():  # 2^dim > cap, on any carrier: refused before anything is sized
            raise CapExceeded(f"a {dim}-cube has 2^{dim} vertices, more than the cube-set cap {cap}")
        self.nilspace = nilspace
        self.dim = dim
        self.cap = cap
        self._class_sets: dict[tuple[int, bool], tuple[np.ndarray, ...]] = {}
        self._hom_sets: dict[int, tuple[np.ndarray, list[int]]] = {}

    @cached_property
    def size(self) -> int:
        total = 1
        n = self.dim
        for m, d in self.nilspace.factors:
            exp = sum(comb(n, i) for i in range(min(d, n) + 1))
            total *= m**exp
        return total

    @cached_property
    def _coords(self) -> np.ndarray:
        """(ncoords, |X|): coordinate j of every element index."""
        return _read_only(np.ascontiguousarray(self.nilspace.group.coords_array.T))

    @cached_property
    def _rank_table(self) -> np.ndarray:
        """T: (2^n, |X|), T[v, x] = sum over the low digits (v, j) of x_j w_(v, j),
        with w_(v, j) the product of the moduli of the low digits after it."""
        factors = self.nilspace.factors
        T = np.zeros((2**self.dim, self.nilspace.group.order), dtype=_index_dtype(self.size))
        weight = 1
        for v in reversed(range(2**self.dim)):
            for j in reversed(range(len(factors))):
                m, d = factors[j]
                if v.bit_count() <= d:
                    T[v] += self._coords[j] * weight
                    weight *= m
        return _read_only(T)

    def _rank(self, Q: np.ndarray, first: int = 0) -> np.ndarray:
        """sum_c T[first + c, Q[:, c]] over the columns c of Q: the row of each
        cube among the rows of Q, or, for the axis-0 faces of cubes (2^(n-1)
        columns), their share of the row as a lower (first = 0) or upper
        (first = 2^(n-1)) face."""
        T = self._rank_table
        total = T[first, Q[:, 0]]
        for c in range(1, Q.shape[1]):
            total += T[first + c, Q[:, c]]
        return total

    @cached_property
    def members(self) -> np.ndarray:
        """All cubes, sorted: the coefficient enumeration, each row written at its rank.

        Certified: every rank is hit once and the rows strictly increase.
        """
        if self.size > self.cap:
            raise CapExceeded(f"cube set of size {self.size} exceeds cap {self.cap}")
        nverts = 2**self.dim
        dtype = _index_dtype(self.nilspace.group.order)
        vertex = np.arange(nverts)
        rows = np.zeros((1, nverts), dtype=dtype)
        stride = self.nilspace.group.order
        for m, d in self.nilspace.factors:
            stride //= m
            # monomial prod_{i in S} v_i, |S| <= d, at vertex v: 1 exactly when 1_S <= v bitwise
            low = vertex[[v.bit_count() <= d for v in range(nverts)]]
            monomials = (np.bitwise_and.outer(low, vertex) == low[:, None]).astype(np.int64)
            coeffs = np.indices((m,) * len(low)).reshape(len(low), -1).T
            tables = ((coeffs @ monomials) % m * stride).astype(dtype)
            rows = (rows[:, None, :] + tables[None, :, :]).reshape(-1, nverts)
        ranks = self._rank(rows)
        hit = np.zeros(self.size, dtype=bool)
        hit[ranks] = True
        members = np.empty_like(rows)
        members[ranks] = rows
        later, earlier = members[1:], members[:-1]
        first = (later != earlier).argmax(axis=1)  # where each row first differs from the one before
        step = np.arange(len(first))
        if len(rows) != self.size or not hit.all() or not (later[step, first] > earlier[step, first]).all():
            raise PostconditionError("cube enumeration is not duplicate-free")
        return _read_only(members)

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

    def position(self, Q: np.ndarray) -> np.ndarray:
        """Row in ``members`` of each row of Q, or -1 where it is not a cube:
        its rank, where the member of that rank is the row itself."""
        members = self.members

        def rows(B):
            r = self._rank(B)
            return np.where((members[r] == B).all(axis=1), r, -1)

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
    def _permuted(self) -> np.ndarray:
        """(max(n - 1, 0), ncubes): row a - 1 holds the row of every cube with
        its vertex coordinates 0 and a swapped.

        These transpositions (0 a) generate the symmetric group, so invariance
        under them is invariance under every permutation.  Each row is the
        ``position`` of the permuted vertex tables, so a table that is not a
        member refuses the build: "permutation left the cube set".
        """
        n, Q = self.dim, self.members
        rows = np.empty((max(n - 1, 0), len(Q)), dtype=_index_dtype(self.size))
        for a in range(1, n):
            idx = list(_perm_indices(n, (a, *range(1, a), 0, *range(a + 1, n))))
            rows[a - 1] = _blockwise(lambda B: self.position(B[:, idx]), Q)
        if (rows < 0).any():
            raise PostconditionError("permutation left the cube set")
        return _read_only(rows)

    @cached_property
    def _potential(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of (r(a), a) and (r(a), b) for every member (a, b), n >= 1.

        A member is the pair of its lower and upper axis-0 faces, and these
        pairs are an equivalence relation on faces.  The members of lower face
        a are adjacent and sorted by their upper faces, so r(a), the least
        face of a's class, is the upper face of the first of them.  A table is
        additive under every concatenation exactly when v(a, b) = v(r, b) -
        v(r, a) with r = r(a): (r, a) o (a, b) = (r, b), and these telescope.
        The rank of (x, y) is the share of x as a lower face plus that of y as
        an upper face, so the rows of (r, a), (r, b) and (b, b) are sums of
        two face shares.

        Certified on the vertex tables, or "concatenation left the cube set":
        every looked-up row has the face asked for, and those of (r, a) and
        (r, b) one r; r(b) = r(a) on every member, as (b, b) is the member of
        lower face b looked up; and each face is the lower face of as many
        members as its class has faces, so the members are the full relation.
        """
        Q, half = self.members, 2 ** (self.dim - 1)
        lower, upper = Q[:, :half], Q[:, half:]
        first = np.ones(len(Q), dtype=bool)
        first[1:] = (lower[1:] != lower[:-1]).any(axis=1)
        faces = np.cumsum(first) - 1  # the number of each member's lower face
        lead = np.flatnonzero(first)[faces]  # the member (a, r(a)) of each member (a, b)
        below, above = self._rank(upper), self._rank(upper, half)
        ra, rb, same = below[lead] + self._rank(lower, half), below[lead] + above, below + above
        if not (
            len(Q) == self.size
            and np.array_equal(Q[ra, half:], lower)
            and np.array_equal(Q[rb, half:], upper)
            and np.array_equal(Q[ra, :half], Q[rb, :half])
            and np.array_equal(Q[same, :half], upper)
            and np.array_equal((roots := faces[ra])[same], roots)  # the number of r(a), as a lower face
            and np.array_equal(np.bincount(faces), np.bincount(roots[first])[roots[first]])
        ):
            raise PostconditionError("concatenation left the cube set")
        return _read_only(ra), _read_only(rb)

    def _classes(self, split: int, rooted: bool) -> tuple[np.ndarray, ...]:
        """The classes of cubes q1 x q2 that the coprime average over the first
        ``split`` factors sums over: those sharing q2 and, if ``rooted``, the
        root of q1.  Kept per (split, rooted) and read-only, as (the class of
        each cube, the cubes in stable class order, class starts, class sizes).
        A cube's q2, the table ``members % |Y2|``, is keyed by its rank in Y2.
        """
        if (split, rooted) not in self._class_sets:
            y2 = CubeSet(FilteredGroupNilspace(self.nilspace.factors[split:]), self.dim)
            order2 = y2.nilspace.group.order
            keys = _blockwise(lambda B: y2._rank(B % order2), self.members).astype(np.int64)
            if rooted:
                keys += (self.members[:, 0] // order2).astype(np.int64) * y2.size
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


def _into_factor(T: np.ndarray, cs: CubeSet, m: int) -> np.ndarray:
    """The rows of T (residue tables mod m, one value per X element index)
    whose alternating sum over every cube of ``cs`` is 0 mod m.

    Only the cubes that vary along every axis can fail (``CubeSet._varying``).
    They stream in blocks of at most ``_BLOCK`` images, and a row is dropped
    at its first failing block.  A sum is at most 2^d (m - 1) in magnitude,
    so it is taken in int64 where that fits and in Python ints above.
    """
    Q, d = cs._varying, cs.dim - 1
    dtype = np.int64 if (m - 1) << d < 2**63 else object
    signs = np.array(_signs(d + 1), dtype=dtype)
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
    return all(len(_into_factor(T[None, :, j], cube_set(X, d + 1), m)) for j, (m, d) in enumerate(Y.factors))


def _reduce(H: np.ndarray, cs: CubeSet, B: np.ndarray, m: int) -> None:
    """Reduce the signed rows of the cubes B of ``cs`` into H mod m, in place: row j of H is 0 before
    column j and holds m, or since a row reached column j a divisor p of m, there.  Euclid steps clear
    each column (the least nonzero entry becomes the pivot).  The old pivot is reduced with the rest, so
    (m / p') P' - (m / p) P, 0 at column j, stays among the rows for a new pivot P' of p', and H spans
    m Z^|X| itself (a Howell form: Storjohann and Mulders, *Fast algorithms for linear algebra modulo N*)."""
    n = len(H)
    rows = np.bincount((np.arange(len(B))[:, None] * n + B).ravel(), np.tile(_signs(cs.dim), len(B)), len(B) * n)
    R = (rows.reshape(-1, n).astype(np.int64) % m).astype(H.dtype)
    for j in range(n):
        live = np.flatnonzero(R[:, j])
        while live.size:
            i = live[np.argmin(R[live, j])]
            if R[i, j] < H[j, j]:
                H[j], R[i] = R[i], H[j].copy()
            R[live] = (R[live] - (R[live, j] // H[j, j])[:, None] * H[j]) % m
            live = live[R[live, j] != 0]


def _face_kernel(cs: CubeSet, m: int) -> tuple[np.ndarray, list[int]]:
    """Generators of Hom(X, D_d(Z_m)), d + 1 = ``cs.dim``, and their orders, kept per m on ``cs``.

    Hom is the kernel mod m of the rows sum_v (-1)^|v| e_q(v) of the varying cubes q, so of a basis B of
    their span plus m Z^|X| (``_reduce``).  With U B V = diag(s_i), each s_i divides m, and Hom is the sum
    of the cyclic groups of order s_i spanned by column i of V times m / s_i.  The kernel of any of the rows
    contains Hom, and the face test is linear, so the kernel is Hom once each generator passes it: that
    decides when to stop, after 64 cubes, then twice as many, and so on, and failing it on all the rows
    is a PostconditionError."""
    if m not in cs._hom_sets:
        n, Q = cs.nilspace.group.order, cs._varying
        # Python ints unless |sum_i c_i g_i| < n m^2 fits in int64
        H, done, stop = np.diag(np.full(n, m, dtype=np.int64 if n * m * m < 2**63 else object)), 0, 64
        while True:
            for s in range(done, min(stop, len(Q)), _BLOCK):
                _reduce(H, cs, Q[s : min(s + _BLOCK, stop)], m)
            _, D, V = smith_normal_form(H.tolist())
            orders = [D[i][i] for i in range(n) if D[i][i] > 1]
            gens = np.array([[r[i] * (m // D[i][i]) % m for i in range(n) if D[i][i] > 1] for r in V], H.dtype).T
            if not any(m % s for s in orders) and len(_into_factor(gens, cs, m)) == len(gens):
                break
            if stop >= len(Q):
                raise PostconditionError("a morphism kernel generator fails the face test")
            done, stop = stop, 2 * stop
        cs._hom_sets[m] = (_read_only(gens), orders)
    return cs._hom_sets[m]


def enumerate_morphisms(X: FilteredGroupNilspace, Y: FilteredGroupNilspace, *, cap: int = 10**6) -> list[tuple]:
    """All morphisms X -> Y as value tables, in the row-major order of the
    value tuples, at desk scale.

    The cubes of a product are the products of cubes, so Hom(X, Y) is the
    product of the Hom(X, D_d(Z_m)) over the factors of Y, each the span of
    its kept generators (``_face_kernel``); the tables are glued, sorted and
    certified pairwise distinct.  ``cap`` bounds |Y|^|X|, the output, and
    |X|; a |Y| beyond int64 is refused under any cap.
    """
    GY, n = Y.group, X.group.order
    cap_power(GY.order, n, cap, "|Y|^|X|")
    if n > cap or GY.order >= 2**63:
        raise CapExceeded(f"|X| = {n} exceeds cap {cap}" if n > cap else f"|Y| = {GY.order} does not fit in int64")
    index = np.zeros((1, n), dtype=np.int64)  # the tables as Y element indices, factor by factor
    for m, d in Y.factors:
        gens, orders = _face_kernel(cube_set(X, d + 1), m)
        T = np.indices(orders).reshape(len(orders), prod(orders)).T @ gens % m
        index = (index[:, None] * m + T).reshape(-1, n).astype(np.int64, copy=False)
    index = index[np.lexsort(index.T[::-1])]
    if (index[1:] == index[:-1]).all(axis=1).any():
        raise PostconditionError("two morphism tables coincide")
    return [tuple(map(tuple, t)) for t in GY.coords_array[index].tolist()]


# ---------------------------------------------------------------------------
# cocycles


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

    ``g`` is such an array, a mapping (a dict or a ``ValueTable``) from
    points (GroupElements or coordinate tuples) to values, or a sequence of
    values in element order; a value is a GroupElement or a coordinate
    sequence.
    """
    G = X.group
    if isinstance(g, np.ndarray):
        if g.shape != (G.order, Z.ncoords):
            raise ValueError("point function must be total on the group")
        return g % Z.moduli
    if isinstance(g, Mapping):
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
    inverse = np.array([[pow(int(c), -1, m) if m > 1 else 0 for m in Z.orders] for c in sizes], dtype=np.int64)
    inverse = inverse.reshape(len(sizes), Z.ncoords)  # size^-1 mod each order of Z, 0 where it is 1
    return (sums * inverse[which] % Z.moduli)[cls]


def factor_average(rho: Cocycle, split: int) -> Cocycle:
    """Coprime average of rho(q1' x q2) over all first-factor cubes q1'.

    The result is a cocycle and factors through the second projection
    (both verified).
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
