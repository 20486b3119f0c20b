"""Host-Kra cube sets on filtered abelian group nilspaces, and cocycles.

A filtered group nilspace is a product of cyclic factors, each carrying a
degree: the n-dimensional cubes are the maps q: {0,1}^n -> group whose
j-th coordinate has vanishing alternating sums over every (d_j+1)-face.
Equivalently (checked exhaustively in the suite) the j-th coordinate of a
cube is a polynomial of degree <= d_j in the 0/1 vertex coordinates, which
is how cube sets are enumerated here: one coefficient in Z_{m_j} per
vertex-subset of size <= d_j, so enumeration is complete and duplicate
free without filtering all |X|^(2^n) maps.

Cubes are stored as tuples of element coordinate vectors indexed by the
vertices of {0,1}^n in lexicographic order (0...0 first); the root of a
cube is its value at vertex 0^n.

Cocycles are group-valued functions on C^{k+1}(X) that are additive under
concatenation of adjacent cubes (along every coordinate) and invariant
under coordinate permutations.  On a product X = Y1 x Y2 with
gcd(|Y1|, |Z|) = 1 two averaging operators apply the coprime average (the
unique z with N z = sum) to the first-factor cubes:

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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product as iproduct
from math import comb, gcd

from .errors import CapExceeded, CoprimalityError, PostconditionError
from .groups import FinAbGroup, GroupElement

__all__ = [
    "FilteredGroupNilspace",
    "CubeSet",
    "Cocycle",
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


@lru_cache(maxsize=None)
def _vertices(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(iproduct((0, 1), repeat=n))


@lru_cache(maxsize=None)
def _face_indices(dim: int, axis: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex indices of the lower (v[axis]=0) and upper (v[axis]=1) faces."""
    verts = _vertices(dim)
    lower = tuple(i for i, v in enumerate(verts) if v[axis] == 0)
    upper = tuple(i for i, v in enumerate(verts) if v[axis] == 1)
    return lower, upper


@lru_cache(maxsize=None)
def _perm_indices(dim: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """out[i] = index of the vertex obtained by permuting vertex i's coordinates."""
    verts = _vertices(dim)
    index = {v: i for i, v in enumerate(verts)}
    return tuple(index[tuple(v[perm[i]] for i in range(dim))] for v in verts)


@lru_cache(maxsize=None)
def _signs(dim: int) -> tuple[int, ...]:
    return tuple(-1 if sum(v) % 2 else 1 for v in _vertices(dim))


@lru_cache(maxsize=None)
def _faces(dim: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All k-faces of {0,1}^dim as ((vertex index, sign), ...) lists.

    A face is a choice of k free coordinates and an assignment of the rest;
    the sign is the alternating sign (-1)^|v| of the full vertex.
    """
    verts = _vertices(dim)
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


@dataclass(frozen=True)
class FilteredGroupNilspace:
    """Product of cyclic factors (order, degree) with Host-Kra cubes."""

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors):
        factors = tuple((int(m), int(d)) for m, d in factors)
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


def _factor_cubes(m: int, d: int, n: int) -> list[tuple[int, ...]]:
    """All degree-<=d polynomial vertex tables {0,1}^n -> Z_m."""
    verts = _vertices(n)
    monomials = []
    for size in range(min(d, n) + 1):
        for S in combinations(range(n), size):
            monomials.append(tuple(1 if all(v[i] for i in S) else 0 for v in verts))
    out = []
    for coeffs in iproduct(range(m), repeat=len(monomials)):
        out.append(
            tuple(
                sum(c * mono[vi] for c, mono in zip(coeffs, monomials)) % m
                for vi in range(len(verts))
            )
        )
    return out


class CubeSet:
    """The n-dimensional cube set of a filtered group nilspace."""

    def __init__(self, nilspace: FilteredGroupNilspace, dim: int, *, cap: int = 2_000_000):
        self.nilspace = nilspace
        self.dim = dim
        self.cap = cap

    @cached_property
    def size(self) -> int:
        total = 1
        n = self.dim
        for m, d in self.nilspace.factors:
            exp = sum(comb(n, i) for i in range(min(d, n) + 1))
            total *= m**exp
        return total

    @cached_property
    def members(self) -> tuple[tuple, ...]:
        """All cubes, sorted; duplicate-free by the coefficient bijection."""
        if self.size > self.cap:
            raise CapExceeded(f"cube set of size {self.size} exceeds cap {self.cap}")
        per_factor = [_factor_cubes(m, d, self.dim) for m, d in self.nilspace.factors]
        nverts = 2**self.dim
        cubes = []
        for choice in iproduct(*per_factor):
            cubes.append(tuple(tuple(col[vi] for col in choice) for vi in range(nverts)))
        cubes.sort()
        if len(set(cubes)) != len(cubes) or len(cubes) != self.size:
            raise PostconditionError("cube enumeration is not duplicate-free")
        return tuple(cubes)

    def contains(self, q) -> bool:
        """Membership by vanishing alternating sums over all (d_j+1)-faces."""
        if len(q) != 2**self.dim:
            return False
        for j, (m, d) in enumerate(self.nilspace.factors):
            if d + 1 > self.dim:
                continue  # no (d+1)-face: constraint vacuous
            for face in _faces(self.dim, d + 1):
                total = sum(sign * q[vi][j] for vi, sign in face)
                if total % m:
                    return False
        return True

    @cached_property
    def by_root(self) -> dict:
        """Cubes grouped by their value at the base vertex 0^n."""
        out: dict[tuple, list] = {}
        for q in self.members:
            out.setdefault(q[0], []).append(q)
        return out


def cube_set(X: FilteredGroupNilspace, n: int, *, cap: int = 2_000_000) -> CubeSet:
    if n < 0:
        raise ValueError("cube dimension must be nonnegative")
    return CubeSet(X, n, cap=cap)


# ---------------------------------------------------------------------------
# morphisms


def is_morphism(table, X: FilteredGroupNilspace, Y: FilteredGroupNilspace, *, dims=None, cap: int = 2_000_000) -> bool:
    """Whether the map given by ``table`` sends cubes of X to cubes of Y.

    ``table`` is indexed by X element index (row-major).  Cube preservation
    is checked in dimensions 1 .. step(Y)+1, which suffices for group
    nilspaces (cross-checked one dimension higher on small instances in the
    suite).
    """
    if dims is None:
        dims = range(1, Y.step + 2)
    GX = X.group
    for n in dims:
        cs_x = cube_set(X, n, cap=cap)
        cs_y = cube_set(Y, n, cap=cap)
        for q in cs_x.members:
            fq = tuple(table[GX.index_of(v)] for v in q)
            if not cs_y.contains(fq):
                return False
    return True


def enumerate_morphisms(X: FilteredGroupNilspace, Y: FilteredGroupNilspace, *, cap: int = 10**6) -> list[tuple]:
    """All morphisms X -> Y as value tables, at desk scale."""
    GX, GY = X.group, Y.group
    if GY.order**GX.order > cap:
        raise CapExceeded(f"|Y|^|X| = {GY.order}^{GX.order} exceeds cap {cap}")
    points = [x.coords for x in GY.elements()]
    out = []
    for table in iproduct(points, repeat=GX.order):
        if is_morphism(table, X, Y):
            out.append(table)
    return out


# ---------------------------------------------------------------------------
# cocycles


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
    coords = tuple(
        (c * pow(count, -1, m)) % m if m > 1 else 0
        for c, m in zip(total.coords, Z.orders)
    )
    return GroupElement(Z, coords)


@dataclass(frozen=True)
class Cocycle:
    """Z-valued function on C^dim(X), stored per cube.

    The carrier is the full cube set; ``table`` maps each cube to a
    GroupElement of ``codomain``.
    """

    nilspace: FilteredGroupNilspace
    codomain: FinAbGroup
    dim: int
    table: dict

    @cached_property
    def carrier(self) -> CubeSet:
        return cube_set(self.nilspace, self.dim)

    def __call__(self, q) -> GroupElement:
        return self.table[q]

    def add(self, other: "Cocycle") -> "Cocycle":
        if (self.nilspace, self.codomain, self.dim) != (other.nilspace, other.codomain, other.dim):
            raise ValueError("cocycles on different carriers")
        return Cocycle(
            self.nilspace,
            self.codomain,
            self.dim,
            {q: v + other.table[q] for q, v in self.table.items()},
        )

    def values_in_order(self) -> list:
        """Values listed by cube in sorted carrier order (the wire format)."""
        return [self.table[q] for q in self.carrier.members]


def _sigma(g: dict, q, Z: FinAbGroup, dim: int) -> GroupElement:
    """Alternating vertex sum sigma_dim(g o q) = sum_v (-1)^|v| g(q(v))."""
    total = Z.zero
    for s, x in zip(_signs(dim), q):
        gv = g[x]
        total = total + (gv if s > 0 else -gv)
    return total


def _as_point_map(g, X: FilteredGroupNilspace, Z: FinAbGroup) -> dict:
    """Normalize a point function to dict coords -> GroupElement."""
    G = X.group
    if isinstance(g, dict):
        out = {}
        for k, v in g.items():
            coords = k.coords if isinstance(k, GroupElement) else tuple(k)
            out[coords] = v if isinstance(v, GroupElement) else Z.element(v)
        if len(out) != G.order:
            raise ValueError("point function must be total on the group")
        return out
    vals = list(g)
    if len(vals) != G.order:
        raise ValueError("point function must be total on the group")
    return {
        x.coords: (v if isinstance(v, GroupElement) else Z.element(v))
        for x, v in zip(G.elements(), vals)
    }


def coboundary(X: FilteredGroupNilspace, Z: FinAbGroup, dim: int, g) -> Cocycle:
    """sigma_dim(g o q): the coboundary cocycle of a point function g."""
    gmap = _as_point_map(g, X, Z)
    cs = cube_set(X, dim)
    table = {q: _sigma(gmap, q, Z, dim) for q in cs.members}
    return Cocycle(X, Z, dim, table)


def _lower_upper(q, dim: int, axis: int):
    li, ui = _face_indices(dim, axis)
    return tuple(q[i] for i in li), tuple(q[i] for i in ui)


def _concatenate(q, qp, dim: int, axis: int):
    """Concatenation along the upper axis-face; q and qp must be adjacent."""
    li, ui = _face_indices(dim, axis)
    out = [None] * len(q)
    for i in li:
        out[i] = q[i]
    for i in ui:
        out[i] = qp[i]
    return tuple(out)


def _permute_cube(q, dim: int, perm):
    """Cube v -> q(perm applied to v coordinates)."""
    return tuple(q[i] for i in _perm_indices(dim, tuple(perm)))


def is_cocycle(rho: Cocycle, *, raise_on_failure: bool = False) -> bool:
    """Concatenation additivity along every coordinate + permutation invariance."""

    def fail(msg):
        if raise_on_failure:
            raise PostconditionError(msg)
        return False

    dim = rho.dim
    members = rho.carrier.members
    table = rho.table
    for perm in permutations(range(dim)):
        for q in members:
            if table[_permute_cube(q, dim, perm)] != table[q]:
                return fail("not invariant under coordinate permutations")
    for axis in range(dim):
        buckets: dict = {}
        for q in members:
            lower, _ = _lower_upper(q, dim, axis)
            buckets.setdefault(lower, []).append(q)
        for q in members:
            _, upper = _lower_upper(q, dim, axis)
            for qp in buckets.get(upper, ()):
                qq = _concatenate(q, qp, dim, axis)
                if qq not in table:
                    raise PostconditionError("concatenation left the cube set")
                if table[qq] != table[q] + table[qp]:
                    return fail("not additive under concatenation")
    return True


def _split_context(rho: Cocycle, split: int):
    y1 = FilteredGroupNilspace(rho.nilspace.factors[:split])
    y2 = FilteredGroupNilspace(rho.nilspace.factors[split:])
    s = y1.group.ncoords
    return y1, y2, s


def _join_cube(q1, q2):
    return tuple(a + b for a, b in zip(q1, q2))


def factor_average(rho: Cocycle, split: int) -> Cocycle:
    """Coprime average of rho(q1' x q2) over all first-factor cubes q1'.

    The result is a cocycle and factors through the second projection
    (both verified).
    """
    y1, _, s = _split_context(rho, split)
    if gcd(y1.group.order, rho.codomain.order) != 1:
        raise CoprimalityError(
            f"gcd(|Y1|={y1.group.order}, |Z|={rho.codomain.order}) != 1"
        )
    cubes1 = cube_set(y1, rho.dim).members
    by_q2: dict = {}
    table = {}
    for q in rho.carrier.members:
        q2 = tuple(v[s:] for v in q)
        if q2 not in by_q2:
            by_q2[q2] = avg_coprime(
                (rho.table[_join_cube(q1p, q2)] for q1p in cubes1), len(cubes1), rho.codomain
            )
        table[q] = by_q2[q2]
    out = Cocycle(rho.nilspace, rho.codomain, rho.dim, table)
    if not is_cocycle(out):
        raise PostconditionError("averaged table is not a cocycle")
    return out


def rooted_factor_average(rho: Cocycle, split: int) -> dict:
    """Coprime average of rho(q1' x q2) over first-factor cubes rooted at q1(0).

    Not necessarily a cocycle; returned as a raw per-cube table.
    """
    y1, _, s = _split_context(rho, split)
    if gcd(y1.group.order, rho.codomain.order) != 1:
        raise CoprimalityError(
            f"gcd(|Y1|={y1.group.order}, |Z|={rho.codomain.order}) != 1"
        )
    rooted = cube_set(y1, rho.dim).by_root
    cache: dict = {}
    out = {}
    for q in rho.carrier.members:
        q1root = q[0][:s]
        q2 = tuple(v[s:] for v in q)
        key = (q1root, q2)
        if key not in cache:
            family = rooted[q1root]
            cache[key] = avg_coprime(
                (rho.table[_join_cube(q1p, q2)] for q1p in family), len(family), rho.codomain
            )
        out[q] = cache[key]
    return out


@dataclass(frozen=True)
class SplitResult:
    """rho = kappa + sigma(g o q): averaged part plus a coboundary.

    kappa is the factor average of rho and factors through the second
    projection; residual holds rho - kappa - sigma(g o q) per cube.
    """

    kappa: Cocycle
    g: dict
    residual: dict


def split_cocycle(rho: Cocycle, split: int) -> SplitResult:
    """Split rho into its factor average plus the coboundary of g.

    g is the rooted-minus-full average difference.  Verifies, exactly:
    rho is a cocycle; kappa is a cocycle factoring through the second
    projection; the average difference agrees on all cubes sharing a root
    (which defines g); and the residual rho - kappa - sigma(g o q)
    vanishes on every cube.
    """
    if not is_cocycle(rho):
        raise ValueError("input fails the cocycle checks")
    kappa = factor_average(rho, split)
    eprime = rooted_factor_average(rho, split)
    g: dict = {}
    for q in rho.carrier.members:
        root = q[0]
        val = eprime[q] - kappa.table[q]
        if root in g:
            if g[root] != val:
                raise PostconditionError("root-independence violated")
        else:
            g[root] = val
    Z = rho.codomain
    residual = {}
    for q in rho.carrier.members:
        residual[q] = rho.table[q] - kappa.table[q] - _sigma(g, q, Z, rho.dim)
    if any(not v.is_zero() for v in residual.values()):
        raise PostconditionError("split residual is nonzero")
    return SplitResult(kappa, g, residual)
