"""Finite abelian groups presented as products of cyclic groups.

Everything is exact and desk-scale: elements are residue vectors, a group
indexes its elements in row-major (lexicographic) order, a subgroup is a
boolean membership mask over those indices, a homomorphism tabulates the
index of every image, and every complement returned by the algorithms below
is verified exhaustively, as array operations.  The module provides

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

Every result is deterministic.  Element scans run in lexicographic order;
independent bases of subgroups are read off Smith normal forms of their
generators, in invariant-factor order.  Complements are not unique:
``find_complement`` returns the one generated by the first lexicographic
lifts of the invariant-factor generators of A/H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product as iproduct
from math import gcd, lcm, prod
from operator import index

import numpy as np

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


# about as many entries live at once in one step of a streamed array computation
# (here the sums of verify_complement, in harmonics the norm kernels)
_BLOCK = 2**17
# the most elements of a chunk: a run of cyclic axes with its own add table and character factor
_CHUNK = 256
# the chunks whose add table and character factor stay cached, each at most _CHUNK^2 entries
_CHUNK_RUNS = 32


@lru_cache(maxsize=_CHUNK_RUNS)
def _chunk_add(orders: tuple[int, ...]) -> np.ndarray:
    """Index table T[h, x] = index of h + x in a chunk Z_{m_1} x ..., row-major, built one axis at a time."""
    out = np.zeros((1, 1), dtype=np.int64)
    for m in orders:
        a = np.arange(m)
        out = (out[:, None, :, None] * m + ((a[:, None] + a) % m)[:, None]).reshape(len(out) * m, -1)
    out.flags.writeable = False
    return out


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
        return lcm(*self.orders)

    @cached_property
    def rank(self) -> int:
        """Minimum size of a generating set (max p-rank over primes)."""
        counts: dict[int, int] = {}
        for o in self.orders:
            for p in _factorize(o):
                counts[p] = counts.get(p, 0) + 1
        return max(counts.values(), default=0)

    @cached_property
    def moduli(self) -> np.ndarray:
        return np.array(self.orders, dtype=np.int64)

    @cached_property
    def radix(self) -> np.ndarray:
        """Weights w with index = coords @ w: w_j is the product of the orders after j."""
        return np.array([prod(self.orders[j + 1 :]) for j in range(self.ncoords)], dtype=np.int64)

    @cached_property
    def coords_array(self) -> np.ndarray:
        """The |A| x n int64 residues of every element, in row-major (lexicographic) order."""
        return np.indices(self.orders, dtype=np.int64).reshape(self.ncoords, self.order).T

    @cached_property
    def chunks(self) -> tuple[tuple[int, ...], ...]:
        """The orders cut, left to right, into runs of at most _CHUNK elements (a longer axis alone), at least one run."""
        runs = [()]
        for m in self.orders:
            if runs[-1] and prod(runs[-1]) * m > _CHUNK:
                runs.append(())
            runs[-1] += (m,)
        return tuple(runs)

    def shift_index(self, h) -> np.ndarray:
        """(len(h), |A|) int64: row t holds the index of x + h_t for every index x, h being element indices;
        chunk by chunk, a row of the chunk's add table or, on an axis longer than _CHUNK, (x + h) mod m."""
        sizes, out = [prod(run) for run in self.chunks], None
        for run, s, hc in zip(self.chunks, sizes, np.unravel_index(np.asarray(h, dtype=np.int64), sizes)):
            rows = _chunk_add(run)[hc] if s <= _CHUNK else (np.arange(s) + hc[:, None]) % s
            out = rows if out is None else (out[:, :, None] * s + rows[:, None, :]).reshape(-1, out.shape[1] * s)
        return out

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

    def residues(self, rows) -> np.ndarray:
        """Integer rows of ncoords entries each (Python ints past int64 too) reduced mod the orders, as int64."""
        flat = list(chain.from_iterable(rows))  # numpy converts one flat list several times faster than nested ones
        try:
            values = np.array(flat, dtype=np.int64)
        except OverflowError:  # beyond int64: reduce as Python ints
            values = np.array(flat, dtype=object)
        return (values.reshape(len(rows), self.ncoords) % self.moduli.astype(values.dtype)).astype(np.int64)

    def index_of(self, coords) -> int:
        """Row-major (first coordinate major) index of a residue vector."""
        i = 0
        for c, m in zip(coords, self.orders, strict=True):
            i = i * m + (c % m)
        return i

    def generators(self) -> list["GroupElement"]:
        """Standard generators e_j of the coordinates with order > 1."""
        return [GroupElement(self, tuple(c)) for c in np.eye(self.ncoords, dtype=np.int64)[self.moduli > 1].tolist()]

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
        return lcm(*(m // gcd(c, m) for c, m in zip(self.coords, self.group.orders)))

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
    def elementary(cls, G: FinAbGroup, i: int, j: int, c: int) -> "Homomorphism":
        """The endomorphism of G whose matrix is the identity with entry (i, j) set to c."""
        n = G.ncoords
        return cls(G, G, [[c if (a, b) == (i, j) else int(a == b) for b in range(n)] for a in range(n)])

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise ValueError("element not in the domain")
        coords = tuple(
            sum(r * c for r, c in zip(row, x.coords)) % m
            for row, m in zip(self.matrix, self.codomain.orders)
        )
        return GroupElement(self.codomain, coords)

    def _array(self, dtype) -> np.ndarray:
        """The matrix as a codomain.ncoords x domain.ncoords array of ``dtype``."""
        return np.array(self.matrix, dtype=dtype).reshape(self.codomain.ncoords, self.domain.ncoords)

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other: one product of the matrices in Python ints, exact beyond int64."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return Homomorphism(other.domain, self.codomain, (self._array(object) @ other._array(object)).tolist())

    def is_identity(self) -> bool:
        if self.domain != self.codomain:
            return False
        n = self.domain.ncoords
        return all(
            self.matrix[i][j] % self.codomain.orders[i] == (1 if i == j else 0) % self.codomain.orders[i]
            for i in range(n)
            for j in range(n)
        )

    def images(self, X: np.ndarray) -> np.ndarray:
        """The images of the rows of X, coordinate vectors of the domain, as coordinate rows."""
        return X @ self._array(np.int64).T % self.codomain.moduli

    @cached_property
    def image_index(self) -> np.ndarray:
        """Index in the codomain of the image of every domain element, in index order."""
        return self.images(self.domain.coords_array) @ self.codomain.radix

    def is_surjective(self) -> bool:
        """Whether every element of the codomain is an image."""
        return bool(np.bincount(self.image_index, minlength=self.codomain.order).all())

    def is_bijective(self) -> bool:
        return self.domain.order == self.codomain.order and self.is_surjective()


def kernel(h: Homomorphism) -> "Subgroup":
    return Subgroup._from_mask(h.domain, h.image_index == 0)


def image(h: Homomorphism) -> "Subgroup":
    hit = np.zeros(h.codomain.order, dtype=bool)
    hit[h.image_index] = True
    return Subgroup._from_mask(h.codomain, hit)


# ---------------------------------------------------------------------------
# subgroups


def _orders(A: FinAbGroup, rows: np.ndarray) -> np.ndarray:
    """The additive order of each coordinate row: the lcm of m_j / gcd(x_j, m_j)."""
    return np.lcm.reduce(A.moduli // np.gcd(rows, A.moduli), axis=1, initial=1)


def _span(parent: FinAbGroup, rows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Membership mask of the subgroup generated by the coordinate rows ``rows`` and the members of ``mask`` (or 0).

    With d the least k >= 1 such that k*g lies in the span S, adding g
    makes S the disjoint union of the cosets S + k*g, 0 <= k < d: one
    broadcast of the coordinates of S against g, 2g, ..., (d - 1)g.
    """
    m, w = parent.moduli, parent.radix
    if mask is None:
        mask, span = np.zeros(parent.order, dtype=bool), np.zeros((1, parent.ncoords), dtype=np.int64)
        mask[0] = True
    else:
        mask, span = mask.copy(), parent.coords_array[mask]
    for g, order in zip(rows, _orders(parent, rows).tolist()):
        multiples = np.arange(1, order + 1)[:, None] * g % m
        d = 1 + int(mask[multiples @ w].argmax())  # the last multiple is 0, always in S
        if d > 1:
            new = ((span[None] + multiples[: d - 1, None]) % m).reshape(-1, parent.ncoords)
            mask[new @ w] = True
            span = np.concatenate((span, new))
    return mask


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent``: its generators, the rows of a read-only int64 (r, ncoords) array of
    residues, and its membership mask over the parent's indices, spanned from the rows when not given."""

    parent: FinAbGroup
    rows: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.rows.flags.writeable = False
        if self.mask is None:
            object.__setattr__(self, "mask", _span(self.parent, self.rows))

    @classmethod
    def from_generators(cls, parent: FinAbGroup, gens) -> "Subgroup":
        """The subgroup generated by ``gens``, each an element of ``parent`` or a list of integer coordinates."""
        coords = []
        for g in gens:
            if isinstance(g, GroupElement) and g.group != parent:
                raise ValueError("generator not in the parent group")
            coords.append([_integer(c) for c in (g.coords if isinstance(g, GroupElement) else g)])
        if any(len(c) != parent.ncoords for c in coords):
            raise ValueError(f"a generator needs one coordinate per cyclic factor, {parent.ncoords}")
        return cls(parent, parent.residues(coords))

    @classmethod
    def _from_mask(cls, parent: FinAbGroup, target: np.ndarray) -> "Subgroup":
        """The subgroup with members ``target``; each generator is the least member not yet spanned."""
        members, firsts, mask = np.flatnonzero(target), [], cls.trivial(parent).mask
        while len(rest := members[~mask[members]]):
            firsts.append(rest[0])
            mask = _span(parent, parent.coords_array[rest[:1]], mask)
        if np.count_nonzero(mask) != len(members):
            raise ValueError("element set is not closed under the group operation")
        return cls(parent, parent.coords_array[firsts], mask)

    @classmethod
    def trivial(cls, parent: FinAbGroup) -> "Subgroup":
        mask = np.zeros(parent.order, dtype=bool)
        mask[0] = True
        return cls(parent, np.zeros((0, parent.ncoords), dtype=np.int64), mask)

    @classmethod
    def full(cls, parent: FinAbGroup) -> "Subgroup":
        rows = np.eye(parent.ncoords, dtype=np.int64)[parent.moduli > 1][::-1]
        return cls(parent, rows, np.ones(parent.order, dtype=bool))

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """The generator rows as ``GroupElement``s, built on first use."""
        return tuple(GroupElement(self.parent, tuple(c)) for c in self.rows.tolist())

    @cached_property
    def order(self) -> int:
        return int(np.count_nonzero(self.mask))

    @cached_property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_property
    def sorted_elements(self) -> tuple[GroupElement, ...]:
        """The members as ``GroupElement``s in lexicographic order, built on first use."""
        A = self.parent
        return tuple(GroupElement(A, tuple(c)) for c in A.coords_array[self.mask].tolist())

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self.sorted_elements)

    def __contains__(self, x) -> bool:
        A = self.parent
        return isinstance(x, GroupElement) and x.group == A and bool(self.mask[A.index_of(x.coords)])

    def __eq__(self, other) -> bool:
        same = isinstance(other, Subgroup) and self.parent == other.parent
        return same and np.array_equal(self.rows, other.rows) and np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash((self.parent, self.rows.tobytes(), self.mask.tobytes()))

    def issubset(self, other: "Subgroup") -> bool:
        return self.parent == other.parent and not np.any(self.mask & ~other.mask)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup._from_mask(self.parent, self.mask & other.mask)

    def join(self, other: "Subgroup") -> "Subgroup":
        if other.parent != self.parent:
            raise ValueError("subgroups of different groups")
        mask = _span(self.parent, other.rows, self.mask)
        return Subgroup(self.parent, np.concatenate((self.rows, other.rows)), mask)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


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
    mat = [[G.orders[i] * (i == j) for j in range(r)] + col for i, col in enumerate(H.rows.T.tolist())]
    U, S, _ = smith_normal_form(mat)
    divisors = [S[i][i] for i in range(r)]
    keep = [i for i, d in enumerate(divisors) if d != 1]
    Q = FinAbGroup(tuple(divisors[i] for i in keep))
    proj = Homomorphism(G, Q, [U[i] for i in keep])
    if not np.array_equal(proj.image_index == 0, H.mask):
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
    iso = Homomorphism(G, product, [[int(j == src) for j in range(G.ncoords)] for p in primes for src in sources[p]])

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
    for p in primes:  # each order p^e, factored in at most isqrt(p^e) steps (p when e >= 2)
        if any(set(_factorize(q)) != {p} for q in comp_orders[p]):
            raise PostconditionError("component is not a p-group")
    if prod(components[p].order for p in primes) != G.order:
        raise PostconditionError("component orders do not multiply to |G|")
    return PrimaryDecomposition(G, tuple(primes), components, product, slices, iso, iso_inv)


# ---------------------------------------------------------------------------
# complements


def verify_complement(A: FinAbGroup, H: Subgroup, K: Subgroup) -> None:
    """Exhaustively check A = H (+) K: unique decomposition of every element.

    Every sum h + k is formed, in blocks of about _BLOCK sums, and counted
    per element of A; each element must be hit exactly once.
    """
    if H.parent != A or K.parent != A:
        raise ValueError("subgroups of a different group")
    if H.order * K.order != A.order:
        raise PostconditionError(f"|H|*|K| = {H.order}*{K.order} != |A| = {A.order}")
    if np.count_nonzero(H.mask & K.mask) != 1:
        raise PostconditionError("H and K intersect nontrivially")
    m, w = A.moduli, A.radix
    hs, ks = A.coords_array[H.mask], A.coords_array[K.mask]
    step = max(1, _BLOCK // len(ks))
    hits = np.zeros(A.order, dtype=np.int64)
    for s in range(0, len(hs), step):
        sums = (hs[s : s + step, None] + ks[None]) % m @ w
        hits += np.bincount(sums.ravel(), minlength=A.order)
    if hits.max() > 1:
        raise PostconditionError("decomposition h + k is not unique")
    if hits.min() == 0:
        raise PostconditionError("H + K does not cover A")


def _first_lifts(quo: Quotient, *, same_order: bool = False) -> np.ndarray | None:
    """First preimage in lexicographic order of each generator e_j of A/H, as coordinate rows.

    With ``same_order`` a preimage must also have the order d_j of e_j.
    Read off the projection's image table; None when some e_j has no such
    preimage.
    """
    Q, A = quo.group, quo.projection.domain
    lifts = []
    for d, w in zip(Q.orders, Q.radix.tolist()):  # every d_j > 1, so e_j has index w_j
        cand = np.flatnonzero(quo.projection.image_index == w)
        if same_order:
            cand = cand[_orders(A, A.coords_array[cand]) == d]
        if not len(cand):
            return None
        lifts.append(cand[0])
    return A.coords_array[lifts]


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
    K = Subgroup(A, lifts)
    verify_complement(A, H, K)
    return K


def _subgroup_basis(H: Subgroup) -> np.ndarray:
    """Independent generators of H, of orders e_1 | e_2 | ..., as rows, from the rows of H.

    H = Z^r / L for the relation lattice L of its generators h_1, ..., h_r.
    In the Smith form U M V = S of M = [h_1 ... h_r | diag(orders)], the last
    r columns of V span the kernel of M; their first r rows form an R with
    L = R Z^r.  With U2 R V2 = diag(e), column i of U2^-1 is column i of
    R V2 over e_i, so b_i = sum_j ((R V2)_{ji} / e_i) h_j has order e_i and
    H is their direct sum; the e_i = 1 terms are dropped.  The coefficients
    are Python ints, so the one product with the rows of H is exact.
    """
    A, gens = H.parent, H.rows
    r, n = gens.shape
    if r == 0 or n == 0:  # no generators, or the group of no coordinates
        return np.zeros((0, n), dtype=np.int64)
    M = [col + [A.orders[i] * (k == i) for k in range(n)] for i, col in enumerate(gens.T.tolist())]
    R = [row[n:] for row in smith_normal_form(M)[2][:r]]
    _, E, V2 = smith_normal_form(R)
    keep = [i for i in range(r) if E[i][i] != 1]
    RV = (np.array(R, dtype=object) @ np.array(V2, dtype=object))[:, keep]
    coeffs = RV.T // np.array([E[i][i] for i in keep], dtype=object).reshape(-1, 1)
    return A.residues(coeffs @ gens.astype(object))


class _PresentedSubgroup:
    """A subgroup of A rewritten as a product of cyclic groups.

    The view group is Z_{ord b_1} x ... x Z_{ord b_l} for the basis rows b_i
    of ``_subgroup_basis``.  Two index arrays translate both ways: view to
    parent is (view coords @ basis) mod the orders, parent to view holds -1
    off the subgroup.  The first is checked to biject onto the subgroup, so
    the hull/enlarge recursion can run inside any subgroup.
    """

    def __init__(self, sub: Subgroup):
        A = self.parent = sub.parent
        self.basis = _subgroup_basis(sub)
        self.group = FinAbGroup(_orders(A, self.basis).tolist())
        self._to_parent = (self.group.coords_array @ self.basis) % A.moduli @ A.radix
        self._to_view = np.full(A.order, -1, dtype=np.int64)
        self._to_view[self._to_parent] = np.arange(self.group.order)
        if self.group.order != sub.order or not np.array_equal(self._to_view >= 0, sub.mask):
            raise PostconditionError("basis is not an independent generating set of the subgroup")

    def to_view(self, rows: np.ndarray) -> np.ndarray:
        """The view coordinates of parent coordinate rows; ValueError off the subgroup."""
        v = self._to_view[rows @ self.parent.radix]
        if np.any(v < 0):
            raise ValueError("element not in the subgroup")
        return self.group.coords_array[v]

    def pull_subgroup(self, sub_in_view: Subgroup) -> Subgroup:
        A, V = self.parent, self.group
        mask = np.zeros(A.order, dtype=bool)
        mask[self._to_parent[sub_in_view.mask]] = True
        return Subgroup(A, A.coords_array[self._to_parent[sub_in_view.rows @ V.radix]], mask)


def complemented_hull(x: GroupElement) -> tuple[Subgroup, Subgroup]:
    """Complemented subgroup H of order <= p^(n^2) containing x, in a p-group.

    Runs the peeling loop on the coordinates y of x: strip p-th roots
    (while every y_j is a multiple of p, y_j // p is the least root), split
    the coordinates into the block where y is a unit mod p and the rest,
    split off the cyclic subgroup of its unit part, and recurse on a p-th
    root of the rest.  The unit part has the largest block order m_{j0}
    (j0 the first such coordinate), so the e_j of the other block
    coordinates complement it: a multiple of it in their span vanishes at
    j0, so is 0, and the orders multiply to |block|.  Returns (H, K) with K
    a verified complement of H.
    """
    return _hull(x.group, x.coords)


def _hull(A: FinAbGroup, x: tuple[int, ...]) -> tuple[Subgroup, Subgroup]:
    """``complemented_hull`` of the element with residues x."""
    p, n = A.pgroup_data()
    if A.order == 1:
        t = Subgroup.trivial(A)
        return t, t
    h_gens: list[tuple[int, ...]] = []
    k_axes: list[int] = []  # the coordinates j whose e_j generate K
    active = [j for j in range(A.ncoords) if A.orders[j] > 1]
    y = x  # zero off the active coordinates
    while any(y[j] for j in active):
        while not any(c % p for c in y):
            y = tuple(c // p for c in y)
        units = [j for j in active if y[j] % p]
        if not units:
            raise PostconditionError("stripped element still has a p-th root")
        h_gens.append(tuple(c if j in units else 0 for j, c in enumerate(y)))
        j0 = max(units, key=lambda j: (A.orders[j], -j))
        k_axes.extend(j for j in reversed(units) if j != j0)
        active = [j for j in active if j not in units]
        # every coordinate of the rest is a multiple of p: take a p-th root
        y = tuple(c // p if j in active else 0 for j, c in enumerate(y))
    # the untouched block goes entirely into the complement
    k_axes.extend(active)
    H = Subgroup(A, np.array(h_gens, dtype=np.int64).reshape(len(h_gens), A.ncoords))
    K = Subgroup(A, np.eye(A.ncoords, dtype=np.int64)[k_axes])
    if not H.mask[A.index_of(x)]:
        raise PostconditionError("hull does not contain x")
    if H.order > p ** (n * n):
        raise PostconditionError(f"|H| = {H.order} exceeds p^(n^2) = {p ** (n * n)}")
    verify_complement(A, H, K)
    return H, K


def complemented_enlarge(H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Complemented H' >= H with |H'| <= p^(n^2 r), r = number of generators.

    One generator x at a time, with H' (+) K = A for the generators so far
    (first 0 and A): write x as g + k along the split, k the first member
    of K with x - k in H', take the complemented hull of k inside K, and
    join it to H'.
    """
    A = H.parent
    p, n = A.pgroup_data()
    r = len(H.rows)
    Hp, K = Subgroup.trivial(A), Subgroup.full(A)
    for x in H.rows:
        ks = A.coords_array[K.mask]  # in sorted order
        hits = Hp.mask[(x - ks) % A.moduli @ A.radix]
        if not hits.any():
            raise PostconditionError("element does not decompose along the claimed split")
        if (k := ks[np.argmax(hits)]).any():
            view = _PresentedSubgroup(K)
            c_v, kp_v = _hull(view.group, tuple(view.to_view(k[None])[0].tolist()))
            Hp, K = Hp.join(view.pull_subgroup(c_v)), view.pull_subgroup(kp_v)
    if not H.issubset(Hp):
        raise PostconditionError("enlarged subgroup does not contain H")
    if Hp.order > p ** (n * n * max(r, 1)) and Hp.order > 1:
        raise PostconditionError("enlarged subgroup exceeds the p^(n^2 r) bound")
    verify_complement(A, Hp, K)
    return Hp, K


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
    T = Subgroup(A, _first_lifts(quotient(A, H)))
    if H.join(T).order != A.order:
        raise PostconditionError("lifted transversal subgroup does not cover A")
    Q = H.intersection(T)

    view = _PresentedSubgroup(H)
    Qp_v, K_v = complemented_enlarge(Subgroup(view.group, view.to_view(_subgroup_basis(Q))))
    Qp = view.pull_subgroup(Qp_v)
    Hp = view.pull_subgroup(K_v)
    complement = Qp.join(T)
    if Hp.index > r ** (n * n + n):
        raise PostconditionError(
            f"index {Hp.index} exceeds r^(n^2+n) = {r ** (n * n + n)}"
        )
    if not Hp.issubset(H):
        raise PostconditionError("shrunk subgroup is not contained in H")
    verify_complement(A, Hp, complement)
    return Hp, complement


def mtorsion_complemented_shrink(H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Complemented H' <= H for general bounded torsion.

    Splits A by primary decomposition, shrinks each prime component, and
    recombines through the decomposition isomorphism: the generator rows of
    H go through ``iso``, and each component's results come back through
    ``iso_inv`` as rows that are zero off its slice.
    """
    A = H.parent
    dec = primary_decompose(A)
    parts, width = dec.iso.images(H.rows), dec.product.ncoords
    found = [[np.zeros((0, width), dtype=np.int64)] for _ in range(2)]  # blocks of the rows of H' and of K
    for p in dec.primes:
        a, b = dec.slices[p]
        for rows, S in zip(found, complemented_shrink(Subgroup(dec.components[p], parts[:, a:b]))):
            rows.append(np.zeros((len(S.rows), width), dtype=np.int64))
            rows[-1][:, a:b] = S.rows
    Hp, K = (Subgroup(A, dec.iso_inv.images(np.concatenate(rows))) for rows in found)
    if not Hp.issubset(H):
        raise PostconditionError("shrunk subgroup is not contained in H")
    verify_complement(A, Hp, K)
    return Hp, K
