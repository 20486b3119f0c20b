"""Finite abelian groups presented as products of cyclic groups.

Everything is exact and desk-scale: elements are residue vectors, subgroups
materialize their element sets, and every complement returned by the
algorithms below is verified exhaustively.  The module provides

  * ``FinAbGroup`` / ``GroupElement`` / ``Homomorphism`` / ``Subgroup``,
  * primary (Sylow) decomposition with an explicit isomorphism pair,
  * kernel / image / quotient (quotient via Smith normal form),
  * complements by lifting the invariant factors of A/H (``find_complement``),
  * the constructive complement machinery for p-groups:
    ``complemented_hull``     - enlarge <x> to a complemented H, |H| <= p^(n^2),
    ``complemented_enlarge``  - enlarge an r-generated H, |H'| <= p^(n^2 r),
    ``complemented_shrink``   - shrink an index-r H to a complemented H' of
                                index <= r^(n^2+n),
    ``mtorsion_complemented_shrink`` - the same for general bounded torsion,
    one prime component at a time.

All iteration orders are lexicographic, so every result is deterministic.
Complements are not unique: ``find_complement`` returns the one generated
by the first lexicographic lifts of the invariant-factor generators of A/H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from math import gcd, prod
from operator import index

from .errors import CapExceeded, PostconditionError

__all__ = [
    "FinAbGroup",
    "GroupElement",
    "Homomorphism",
    "Subgroup",
    "PrimaryDecomposition",
    "Quotient",
    "primary_decompose",
    "kernel",
    "image",
    "quotient",
    "find_complement",
    "complemented_hull",
    "complemented_enlarge",
    "complemented_shrink",
    "mtorsion_complemented_shrink",
    "verify_complement",
    "smith_normal_form",
]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _integer(x) -> int:
    """x as an int; ValueError unless x is an integer (numpy's count, bools do not)."""
    if isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None


@dataclass(frozen=True)
class FinAbGroup:
    """Product of cyclic groups Z_{m_1} x ... x Z_{m_r}, orders m_j >= 1."""

    orders: tuple[int, ...]

    def __init__(self, orders):
        orders = tuple(_integer(m) for m in orders)
        if any(m < 1 for m in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def ncoords(self) -> int:
        return len(self.orders)

    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @cached_property
    def torsion(self) -> int:
        """Exponent of the group: the least m with m*x = 0 for all x."""
        m = 1
        for o in self.orders:
            m = _lcm(m, o)
        return m

    @cached_property
    def rank(self) -> int:
        """Minimum size of a generating set (max p-rank over primes)."""
        counts: dict[int, int] = {}
        for o in self.orders:
            for p in _factorize(o):
                counts[p] = counts.get(p, 0) + 1
        return max(counts.values(), default=0)

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ncoords)

    def element(self, coords) -> "GroupElement":
        coords = tuple(_integer(c) % m for c, m in zip(coords, self.orders, strict=True))
        return GroupElement(self, coords)

    def elements(self):
        """All elements in lexicographic coordinate order."""
        for coords in iproduct(*(range(m) for m in self.orders)):
            yield GroupElement(self, coords)

    def index_of(self, coords) -> int:
        """Row-major (first coordinate major) index of a residue vector."""
        i = 0
        for c, m in zip(coords, self.orders, strict=True):
            i = i * m + (c % m)
        return i

    def coords_at(self, index: int) -> tuple[int, ...]:
        coords = []
        for m in reversed(self.orders):
            coords.append(index % m)
            index //= m
        return tuple(reversed(coords))

    def generators(self) -> list["GroupElement"]:
        """Standard generators e_j of the coordinates with order > 1."""
        gens = []
        for j, m in enumerate(self.orders):
            if m > 1:
                c = [0] * self.ncoords
                c[j] = 1
                gens.append(GroupElement(self, tuple(c)))
        return gens

    def is_pgroup(self) -> bool:
        return len(_factorize(self.order)) <= 1

    def pgroup_data(self) -> tuple[int, int]:
        """(p, n) with the group of torsion p^n; raises if not a p-group.

        The trivial group is a p-group for every prime; it reports (2, 0).
        """
        fac = _factorize(self.order)
        if len(fac) > 1:
            raise ValueError(f"not a p-group: order {self.order}")
        if not fac:
            return 2, 0
        (p,) = fac
        n = max(_factorize(o).get(p, 0) for o in self.orders)
        return p, n

    def __repr__(self):
        return f"FinAbGroup{self.orders}"


@dataclass(frozen=True, eq=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return GroupElement(
            self.group,
            tuple((a + b) % m for a, b, m in zip(self.coords, other.coords, self.group.orders)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group, tuple((-a) % m for a, m in zip(self.coords, self.group.orders))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, n: int) -> "GroupElement":
        return GroupElement(
            self.group, tuple((a * n) % m for a, m in zip(self.coords, self.group.orders))
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        """Additive order: lcm of coordinate orders m_j / gcd(x_j, m_j)."""
        n = 1
        for c, m in zip(self.coords, self.group.orders):
            n = _lcm(n, m // gcd(c, m))
        return n

    def __lt__(self, other: "GroupElement") -> bool:
        return self.coords < other.coords

    def __repr__(self):
        return f"({','.join(map(str, self.coords))})"


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by an integer matrix.

    ``matrix`` has codomain.ncoords rows and domain.ncoords columns; the
    image of x is (matrix @ x) reduced mod the codomain orders.  The
    constructor reduces entries and checks well-definedness: for each
    domain generator e_j of order m_j, m_j * (column j) must vanish in the
    codomain.
    """

    domain: FinAbGroup
    codomain: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, domain, codomain, matrix):
        rows = []
        matrix = [list(r) for r in matrix]
        if len(matrix) != codomain.ncoords or any(
            len(r) != domain.ncoords for r in matrix
        ):
            raise ValueError("matrix shape must be codomain.ncoords x domain.ncoords")
        for i, mi in enumerate(codomain.orders):
            rows.append(tuple(_integer(e) % mi for e in matrix[i]))
        for j, mj in enumerate(domain.orders):
            for i, mi in enumerate(codomain.orders):
                if (mj * rows[i][j]) % mi != 0:
                    raise ValueError(
                        f"not well-defined: order-{mj} generator {j} maps to an "
                        f"element not killed by {mj} in coordinate {i}"
                    )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", tuple(rows))

    @classmethod
    def identity(cls, G: FinAbGroup) -> "Homomorphism":
        n = G.ncoords
        return cls(G, G, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, domain: FinAbGroup, codomain: FinAbGroup) -> "Homomorphism":
        return cls(domain, codomain, [[0] * domain.ncoords] * codomain.ncoords)

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise ValueError("element not in the domain")
        coords = tuple(
            sum(r * c for r, c in zip(row, x.coords)) % m
            for row, m in zip(self.matrix, self.codomain.orders)
        )
        return GroupElement(self.codomain, coords)

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        prod_mat = [
            [
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(self.domain.ncoords))
                for j in range(other.domain.ncoords)
            ]
            for i in range(self.codomain.ncoords)
        ]
        return Homomorphism(other.domain, self.codomain, prod_mat)

    def is_identity(self) -> bool:
        if self.domain != self.codomain:
            return False
        n = self.domain.ncoords
        return all(
            self.matrix[i][j] % self.codomain.orders[i] == (1 if i == j else 0) % self.codomain.orders[i]
            for i in range(n)
            for j in range(n)
        )

    def is_surjective(self) -> bool:
        """Whether the images tau(e_j) of the domain generators generate the codomain."""
        gens = [self(e) for e in self.domain.generators()]
        return len(_closure(self.codomain, gens)) == self.codomain.order

    def is_bijective(self) -> bool:
        return self.domain.order == self.codomain.order and self.is_surjective()

    def inverse(self) -> "Homomorphism":
        """Inverse of a bijective homomorphism (preimages of generators)."""
        if not self.is_bijective():
            raise ValueError("not bijective")
        lookup = {self(x).coords: x.coords for x in self.domain.elements()}
        cols = []
        for j in range(self.codomain.ncoords):
            e = [0] * self.codomain.ncoords
            e[j] = 1 % self.codomain.orders[j]
            cols.append(lookup[tuple(e)])
        mat = [[cols[j][i] for j in range(self.codomain.ncoords)] for i in range(self.domain.ncoords)]
        inv = Homomorphism(self.codomain, self.domain, mat)
        if not inv.compose(self).is_identity() or not self.compose(inv).is_identity():
            raise PostconditionError("inverse verification failed")
        return inv


def kernel(h: Homomorphism) -> "Subgroup":
    elems = frozenset(x for x in h.domain.elements() if h(x).is_zero())
    return Subgroup._from_elements(h.domain, elems)


def image(h: Homomorphism) -> "Subgroup":
    elems = frozenset(h(x) for x in h.domain.elements())
    return Subgroup._from_elements(h.codomain, elems)


# ---------------------------------------------------------------------------
# subgroups


def _closure(parent: FinAbGroup, gens) -> frozenset:
    """Subgroup generated by ``gens``: closure under addition.

    Coordinate-tuple arithmetic internally; the per-generator step adds all
    multiples of the generator to the current span.
    """
    orders = parent.orders
    zero = (0,) * len(orders)
    elems = {zero}
    for g in gens:
        if g.group != parent:
            raise ValueError("generator not in the parent group")
        gc = g.coords
        if gc in elems:
            continue
        multiples = []
        x = gc
        while any(x):
            multiples.append(x)
            x = tuple((a + b) % m for a, b, m in zip(x, gc, orders))
        elems |= {
            tuple((a + b) % m for a, b, m in zip(e, mu, orders))
            for e in list(elems)
            for mu in multiples
        }
    return frozenset(GroupElement(parent, c) for c in elems)


@dataclass(frozen=True)
class Subgroup:
    parent: FinAbGroup
    generators: tuple[GroupElement, ...]
    elements: frozenset

    @classmethod
    def from_generators(cls, parent: FinAbGroup, gens) -> "Subgroup":
        gens = tuple(parent.element(g) if not isinstance(g, GroupElement) else g for g in gens)
        return cls(parent, gens, _closure(parent, gens))

    @classmethod
    def _from_elements(cls, parent: FinAbGroup, elems: frozenset) -> "Subgroup":
        # reduce to a small deterministic generating list
        gens: list[GroupElement] = []
        span = {parent.zero}
        for e in sorted(elems):
            if e not in span:
                gens.append(e)
                span = set(_closure(parent, gens))
        if span != set(elems):
            raise ValueError("element set is not closed under the group operation")
        return cls(parent, tuple(gens), frozenset(elems))

    @classmethod
    def trivial(cls, parent: FinAbGroup) -> "Subgroup":
        return cls(parent, (), frozenset({parent.zero}))

    @classmethod
    def full(cls, parent: FinAbGroup) -> "Subgroup":
        return cls._from_elements(parent, frozenset(parent.elements()))

    @cached_property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_property
    def sorted_elements(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self.elements))

    def __contains__(self, x: GroupElement) -> bool:
        return x in self.elements

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup._from_elements(self.parent, self.elements & other.elements)

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup.from_generators(self.parent, self.generators + other.generators)

    def __repr__(self):
        return f"Subgroup(order={len(self.elements)} of {self.parent!r})"


# ---------------------------------------------------------------------------
# Smith normal form and quotients


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Exact integer Smith normal form by least-remainder elimination.

    Returns (U, S, V) with U @ mat @ V == S, U and V unimodular, S diagonal
    with nonnegative entries d_1 | d_2 | ...

    For each pivot t, the smallest nonzero entry of the trailing block (first
    in row-major order among ties) moves to (t, t), and every other entry of
    row t and column t is reduced by its floor quotient.  A nonzero remainder
    is smaller than the pivot, so picking the pivot again strictly shrinks
    it.  When row t and column t are clear but the pivot fails to divide an
    entry of the trailing block, that entry's row is added to row t, which
    leaves such a remainder in row t.  |pivot| is a positive integer that
    falls at least every second repeat, so the loop ends.  Taking the least entry left as
    the pivot keeps the quotients, and so the entries, small on dense input.
    """
    S = [list(map(int, row)) for row in mat]
    r = len(S)
    c = len(S[0]) if r else 0
    U = _eye(r)
    V = _eye(c)
    for t in range(min(r, c)):
        while True:
            pivots = [(abs(S[i][j]), i, j) for i in range(t, r) for j in range(t, c) if S[i][j]]
            if not pivots:
                return U, S, V
            _, i0, j0 = min(pivots)
            S[t], S[i0], U[t], U[i0] = S[i0], S[t], U[i0], U[t]
            for row in S + V:
                row[t], row[j0] = row[j0], row[t]
            p = S[t][t]
            for i in range(t + 1, r):
                if q := S[i][t] // p:
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
            for j in range(t + 1, c):
                if q := S[t][j] // p:
                    for row in S + V:
                        row[j] -= q * row[t]
            if any(S[i][t] for i in range(t + 1, r)) or any(S[t][t + 1 :]):
                continue
            bad = next((i for i in range(t + 1, r) if any(a % p for a in S[i][t + 1 :])), None)
            if bad is None:
                break
            S[t] = [a + b for a, b in zip(S[t], S[bad])]
            U[t] = [a + b for a, b in zip(U[t], U[bad])]
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
    return U, S, V


@dataclass(frozen=True)
class Quotient:
    group: FinAbGroup
    projection: Homomorphism


def quotient(G: FinAbGroup, H: Subgroup) -> Quotient:
    """Quotient group G/H with a surjective projection of kernel H.

    Presented in invariant factors via the Smith normal form of the
    relation matrix [diag(orders) | generators of H].
    """
    if H.parent != G:
        raise ValueError("H is not a subgroup of G")
    r = G.ncoords
    cols = [list(g.coords) for g in H.generators]
    mat = [[G.orders[i] if i == j else 0 for j in range(r)] for i in range(r)]
    for col in cols:
        for i in range(r):
            mat[i].append(col[i])
    U, S, _ = smith_normal_form(mat)
    divisors = [S[i][i] for i in range(r)]
    keep = [i for i, d in enumerate(divisors) if d != 1]
    Q = FinAbGroup(tuple(divisors[i] for i in keep))
    proj = Homomorphism(G, Q, [U[i] for i in keep])
    if kernel(proj).elements != H.elements:
        raise PostconditionError("quotient projection kernel mismatch")
    if Q.order * H.order != G.order:  # with kernel H, the image has |G|/|H| elements
        raise PostconditionError("quotient projection not surjective")
    return Quotient(Q, proj)


# ---------------------------------------------------------------------------
# primary decomposition


@dataclass(frozen=True)
class PrimaryDecomposition:
    parent: FinAbGroup
    primes: tuple[int, ...]
    components: dict
    product: FinAbGroup
    slices: dict
    iso: Homomorphism
    iso_inv: Homomorphism

    def split(self, x: GroupElement) -> dict:
        """Component elements (one per prime) of x."""
        y = self.iso(x)
        out = {}
        for p in self.primes:
            a, b = self.slices[p]
            out[p] = GroupElement(self.components[p], y.coords[a:b])
        return out

    def embed(self, p: int, xp: GroupElement) -> GroupElement:
        """Image in the parent of a single-component element."""
        a, b = self.slices[p]
        coords = [0] * self.product.ncoords
        coords[a:b] = xp.coords
        return self.iso_inv(GroupElement(self.product, tuple(coords)))


def primary_decompose(G: FinAbGroup) -> PrimaryDecomposition:
    """CRT split of every cyclic factor into its prime-power parts."""
    primes = sorted({p for m in G.orders for p in _factorize(m)})
    comp_orders: dict[int, list[int]] = {p: [] for p in primes}
    sources: dict[int, list[int]] = {p: [] for p in primes}  # originating coordinate
    for j, m in enumerate(G.orders):
        for p, e in sorted(_factorize(m).items()):
            comp_orders[p].append(p**e)
            sources[p].append(j)
    components = {p: FinAbGroup(tuple(comp_orders[p])) for p in primes}
    prod_orders: list[int] = []
    slices: dict[int, tuple[int, int]] = {}
    for p in primes:
        a = len(prod_orders)
        prod_orders.extend(comp_orders[p])
        slices[p] = (a, len(prod_orders))
    product = FinAbGroup(tuple(prod_orders))

    # iso: reduce each coordinate into its prime-power parts
    iso_rows = []
    for p in primes:
        for j in sources[p]:
            row = [0] * G.ncoords
            row[j] = 1
            iso_rows.append(row)
    iso = Homomorphism(G, product, iso_rows)

    # inverse: CRT reconstruction coefficients per original coordinate
    inv_rows = []
    for j, m in enumerate(G.orders):
        row = [0] * product.ncoords
        for p in primes:
            a, _ = slices[p]
            for idx, src in enumerate(sources[p]):
                if src == j:
                    q = comp_orders[p][idx]
                    rest = m // q
                    # coefficient rest * (rest^{-1} mod q) is 1 mod q, 0 mod m/q
                    row[a + idx] = rest * pow(rest, -1, q)
        inv_rows.append(row)
    iso_inv = Homomorphism(product, G, inv_rows)

    if not iso_inv.compose(iso).is_identity() or not iso.compose(iso_inv).is_identity():
        raise PostconditionError("primary decomposition isomorphism failed to invert")
    for p in primes:
        if len(_factorize(components[p].order)) != 1:
            raise PostconditionError("component is not a p-group")
    if prod(components[p].order for p in primes) != G.order:
        raise PostconditionError("component orders do not multiply to |G|")
    return PrimaryDecomposition(G, tuple(primes), components, product, slices, iso, iso_inv)


# ---------------------------------------------------------------------------
# complements


def verify_complement(A: FinAbGroup, H: Subgroup, K: Subgroup) -> None:
    """Exhaustively check A = H (+) K: unique decomposition of every element."""
    if H.parent != A or K.parent != A:
        raise ValueError("subgroups of a different group")
    if H.order * K.order != A.order:
        raise PostconditionError(f"|H|*|K| = {H.order}*{K.order} != |A| = {A.order}")
    if H.elements & K.elements != {A.zero}:
        raise PostconditionError("H and K intersect nontrivially")
    seen = set()
    for h in H.elements:
        for k in K.elements:
            s = h + k
            if s in seen:
                raise PostconditionError("decomposition h + k is not unique")
            seen.add(s)
    if len(seen) != A.order:
        raise PostconditionError("H + K does not cover A")


def _first_lifts(quo: Quotient, *, same_order: bool = False) -> list[GroupElement] | None:
    """First preimage in lexicographic order of each generator e_j of A/H.

    With ``same_order`` a preimage must also have the order d_j of e_j.
    One pass over A; None when some e_j has no such preimage.
    """
    d = quo.group.orders
    lifts: dict[int, GroupElement] = {}
    for a in quo.projection.domain.elements():
        if len(lifts) == len(d):
            break
        e = quo.projection(a).coords  # a residue vector, so e = e_j iff sum(e) == 1
        if sum(e) == 1 and (not same_order or a.order() == d[e.index(1)]):
            lifts.setdefault(e.index(1), a)
    return [lifts[j] for j in range(len(d))] if len(lifts) == len(d) else None


def find_complement(H: Subgroup, *, cap: int = 10**7) -> Subgroup | None:
    """Complement of H in its parent A, or None when H has none.

    Lift criterion: with pi: A -> A/H and e_j the invariant-factor
    generators of A/H, of orders d_j, H has a complement exactly when every
    e_j has a preimage of order d_j.  If K complements H, pi maps K
    isomorphically onto A/H, so the preimage of e_j in K has order d_j.
    Conversely, lifts of order d_j generate a K with |K| <= prod d_j = |A/H|
    that pi maps onto A/H; so pi is a bijection on K, K meets H in 0 and
    |H| * |K| = |A|.  Each lift is the first in lexicographic order, and the
    complement they generate is verified exhaustively.  ``cap`` bounds
    2|A|: the quotient's kernel check and the lift scan each pass over A.
    """
    A = H.parent
    if 2 * A.order > cap:
        raise CapExceeded(f"2|A| = {2 * A.order} exceeds cap {cap}")
    lifts = _first_lifts(quotient(A, H), same_order=True)
    if lifts is None:
        return None
    K = Subgroup.from_generators(A, lifts)
    verify_complement(A, H, K)
    return K


# -- presented p-subgroups: independent-basis coordinates for a materialized
#    subgroup, so the hull/enlarge recursion can run inside any subgroup.


def _maximal_cyclic_complement(elems: frozenset, x: GroupElement) -> tuple[list[GroupElement], frozenset]:
    """Greedy complement of <x> inside a finite abelian p-group element set.

    Requires ord(x) to equal the exponent of the subgroup; then a maximal
    subgroup C with C * <x> = 0 is a complement.  Built greedily in
    lexicographic order, so the result is deterministic.
    """
    parent = x.group
    ordx = x.order()
    xmult = []
    y = x
    while not y.is_zero():
        xmult.append(y)
        y = y + x
    c_gens: list[GroupElement] = []
    c_els: frozenset = frozenset({parent.zero})
    dstar = {m + c for m in xmult for c in c_els}
    for a in sorted(elems):
        if a.is_zero() or a in c_els:
            continue
        ok = True
        ja = a
        while not ja.is_zero():
            if ja in dstar:
                ok = False
                break
            ja = ja + a
        if ok:
            c_gens.append(a)
            c_els = _closure(parent, c_gens)
            dstar = {m + c for m in xmult for c in c_els}
    if len(c_els) * ordx != len(elems):
        raise PostconditionError("maximal-order cyclic subgroup failed to split off")
    return c_gens, c_els


def _pgroup_basis(parent: FinAbGroup, elems: frozenset) -> list[GroupElement]:
    """Independent generators of a materialized abelian p-group subgroup."""
    if len(elems) == 1:
        return []
    x = min(elems, key=lambda e: (-e.order(), e.coords))
    _, c_els = _maximal_cyclic_complement(elems, x)
    return [x] + _pgroup_basis(parent, c_els)


class _PresentedSubgroup:
    """A subgroup of A rewritten as a product of cyclic groups.

    basis b_1, ..., b_l are independent generators; the view group is
    Z_{ord b_1} x ... x Z_{ord b_l} and coordinates translate both ways.
    """

    def __init__(self, sub: Subgroup):
        self.parent = sub.parent
        self.basis = _pgroup_basis(sub.parent, sub.elements)
        self.group = FinAbGroup(tuple(b.order() for b in self.basis))
        if self.group.order != sub.order:
            raise PostconditionError("basis does not span the subgroup")
        self._to_parent: dict[tuple, GroupElement] = {}
        self._to_view: dict[GroupElement, tuple] = {}
        for coords in iproduct(*(range(m) for m in self.group.orders)):
            e = sub.parent.zero
            for c, b in zip(coords, self.basis):
                e = e + c * b
            self._to_parent[coords] = e
            self._to_view[e] = coords

    def view_coords(self, x: GroupElement) -> GroupElement:
        return GroupElement(self.group, self._to_view[x])

    def parent_element(self, v: GroupElement) -> GroupElement:
        return self._to_parent[v.coords]

    def pull_subgroup(self, sub_in_view: Subgroup) -> Subgroup:
        gens = [self.parent_element(g) for g in sub_in_view.generators]
        elems = frozenset(self.parent_element(e) for e in sub_in_view.elements)
        return Subgroup(self.parent, tuple(gens), elems)


def _strip_pth_roots(A: FinAbGroup, x: GroupElement, p: int) -> GroupElement:
    """Replace x by x' with x in <x'> and x' without p-th roots.

    Divides by p repeatedly: the lexicographically smallest root of y is
    (y_j // p) per coordinate, which exists exactly when every coordinate
    of y is a multiple of p.
    """
    while not x.is_zero() and all(c % p == 0 for c in x.coords):
        x = GroupElement(A, tuple(c // p for c in x.coords))
    return x


def complemented_hull(x: GroupElement) -> tuple[Subgroup, Subgroup]:
    """Complemented subgroup H of order <= p^(n^2) containing x, in a p-group.

    Runs the peeling loop: strip p-th roots, split coordinates into the
    block where x is a unit mod p and the rest, split off a maximal cyclic
    subgroup of the unit block, and recurse on a p-th root of the rest.
    Returns (H, K) with K a verified complement of H.
    """
    A = x.group
    p, n = A.pgroup_data()
    if A.order == 1:
        t = Subgroup.trivial(A)
        return t, t
    h_gens: list[GroupElement] = []
    k_gens: list[GroupElement] = []
    active = [j for j in range(A.ncoords) if A.orders[j] > 1]
    y = x
    while True:
        if all(y.coords[j] == 0 for j in active):
            break
        y = _strip_pth_roots(A, y, p)
        unit_idx = [j for j in active if y.coords[j] % p != 0]
        if not unit_idx:
            raise PostconditionError("stripped element still has a p-th root")
        rest_idx = [j for j in active if j not in unit_idx]
        part = A.element(tuple(y.coords[j] if j in unit_idx else 0 for j in range(A.ncoords)))
        h_gens.append(part)
        block = frozenset(
            A.element(tuple(c[unit_idx.index(j)] if j in unit_idx else 0 for j in range(A.ncoords)))
            for c in iproduct(*(range(A.orders[j]) for j in unit_idx))
        )
        c_gens, _ = _maximal_cyclic_complement(block, part)
        k_gens.extend(c_gens)
        rest = A.element(tuple(y.coords[j] if j in rest_idx else 0 for j in range(A.ncoords)))
        active = rest_idx
        if rest.is_zero():
            break
        # all coordinates of the rest are multiples of p: take a p-th root
        y = GroupElement(A, tuple(c // p for c in rest.coords))
    # the untouched block goes entirely into the complement
    for j in active:
        e = [0] * A.ncoords
        e[j] = 1
        k_gens.append(A.element(tuple(e)))
    H = Subgroup.from_generators(A, h_gens)
    K = Subgroup.from_generators(A, k_gens)
    if x not in H:
        raise PostconditionError("hull does not contain x")
    if H.order > p ** (n * n):
        raise PostconditionError(f"|H| = {H.order} exceeds p^(n^2) = {p ** (n * n)}")
    verify_complement(A, H, K)
    return H, K


def complemented_enlarge(H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Complemented H' >= H with |H'| <= p^(n^2 r), r = number of generators.

    Recursion on the generator count: enlarge the first r-1 generators,
    write the last one as g + k along the split, take the complemented hull
    of k inside the complement, and join.
    """
    A = H.parent
    p, n = A.pgroup_data()
    r = len(H.generators)
    Hp, K = _enlarge_rec(A, list(H.generators))
    if not H.elements <= Hp.elements:
        raise PostconditionError("enlarged subgroup does not contain H")
    if Hp.order > p ** (n * n * max(r, 1)) and Hp.order > 1:
        raise PostconditionError("enlarged subgroup exceeds the p^(n^2 r) bound")
    verify_complement(A, Hp, K)
    return Hp, K


def _enlarge_rec(A: FinAbGroup, gens: list[GroupElement]) -> tuple[Subgroup, Subgroup]:
    if not gens:
        return Subgroup.trivial(A), Subgroup.full(A)
    Gp, K = _enlarge_rec(A, gens[:-1])
    x = gens[-1]
    g = None
    for k in K.sorted_elements:
        if (x - k) in Gp.elements:
            g = x - k
            break
    if g is None:
        raise PostconditionError("element does not decompose along the claimed split")
    k = x - g
    if k.is_zero():
        return Gp, K
    view = _PresentedSubgroup(Subgroup._from_elements(A, K.elements))
    c_v, kp_v = complemented_hull(view.view_coords(k))
    C = view.pull_subgroup(c_v)
    Kp = view.pull_subgroup(kp_v)
    Hp = Gp.join(C)
    return Hp, Kp


def complemented_shrink(H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Complemented H' <= H of index at most r^(n^2+n) in a p^n-torsion group.

    Follows the constructive proof: lift generators of A/H to a subgroup T
    with H + T = A, enlarge Q = H * T inside H to a complemented Q', and
    return the complement K of Q' in H; K has complement Q' + T in A.
    """
    A = H.parent
    p, n = A.pgroup_data()
    r = H.index
    if r == 1:
        Hp, K = Subgroup.full(A), Subgroup.trivial(A)
        verify_complement(A, Hp, K)
        return Hp, K
    T = Subgroup.from_generators(A, _first_lifts(quotient(A, H)))
    if len(H.join(T).elements) != A.order:
        raise PostconditionError("lifted transversal subgroup does not cover A")
    Q = H.intersection(T)

    view = _PresentedSubgroup(H)
    q_gens_v = [view.view_coords(b) for b in _pgroup_basis(A, Q.elements)]
    Qp_v, K_v = complemented_enlarge(Subgroup.from_generators(view.group, q_gens_v))
    Qp = view.pull_subgroup(Qp_v)
    K = view.pull_subgroup(K_v)

    Hp = K
    complement = Qp.join(T)
    if Hp.index > r ** (n * n + n):
        raise PostconditionError(
            f"index {Hp.index} exceeds r^(n^2+n) = {r ** (n * n + n)}"
        )
    if not Hp.elements <= H.elements:
        raise PostconditionError("shrunk subgroup is not contained in H")
    verify_complement(A, Hp, complement)
    return Hp, complement


def mtorsion_complemented_shrink(H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Complemented H' <= H for general bounded torsion.

    Splits A by primary decomposition, shrinks each prime component, and
    recombines through the decomposition isomorphism.
    """
    A = H.parent
    dec = primary_decompose(A)
    hp_gens: list[GroupElement] = []
    k_gens: list[GroupElement] = []
    for p in dec.primes:
        Gp = dec.components[p]
        comp_gens = [dec.split(g)[p] for g in H.generators]
        Hp_comp = Subgroup.from_generators(Gp, comp_gens)
        Hprime_p, K_p = complemented_shrink(Hp_comp)
        hp_gens.extend(dec.embed(p, g) for g in Hprime_p.generators)
        k_gens.extend(dec.embed(p, g) for g in K_p.generators)
    Hp = Subgroup.from_generators(A, hp_gens)
    K = Subgroup.from_generators(A, k_gens)
    if not Hp.elements <= H.elements:
        raise PostconditionError("shrunk subgroup is not contained in H")
    verify_complement(A, Hp, K)
    return Hp, K
