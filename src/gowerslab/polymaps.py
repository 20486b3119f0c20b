"""Polynomial maps between finite abelian groups.

A map P: G -> A is polynomial of degree at most k when every (k+1)-fold
discrete derivative d_h P(x) = P(x+h) - P(x) vanishes.  A map is stored as
one exact int64 value array, a row of codomain residues per domain element
in row-major order, so composition, translation and derivatives are index
gathers.  The degree is certified by iterating derivatives along the
standard generators only, which suffices because

    d_{g+h} P(x) = d_g P(x+h) + d_h P(x),

so nilpotence of the generator derivatives is equivalent to nilpotence of
all derivatives (tested exhaustively in the suite).  Non-polynomial maps
are detected by cycle detection: the generator-derivative operator acts on
a finite state space, so the iteration either reaches the zero state or
revisits a previous one.

The module also builds the constructive polynomial cross-section of any
surjective homomorphism: representative lifts between cyclic p-groups
(degree at most (d-s)p^s + 1, via the divisibility of the p^s-th power of
the circulant forward-difference matrix), a Gaussian-elimination style
decomposition U M V = (A, id) P of a surjection of p-groups, and a
prime-by-prime recursion for the general case, each level of which maps the
whole codomain at once by matrix products and gathers.  No floating point
is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import CapExceeded, PostconditionError
from .groups import FinAbGroup, GroupElement, Homomorphism, _eye, _factorize, _integer, primary_decompose

__all__ = [
    "PolyMap",
    "BinomialPoly",
    "SurjectionDecomposition",
    "binom",
    "derivative",
    "degree",
    "cyclic_lift",
    "forward_difference_matrix",
    "forward_difference_power",
    "decompose_surjection",
    "polynomial_cross_section",
]


def binom(x: int, i: int) -> int:
    """Binomial coefficient C(x, i) for arbitrary integer x, exact."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for t in range(i):
        num *= x - t
    return num // factorial(i)


@dataclass(frozen=True, eq=False)
class PolyMap:
    """Map between finite abelian groups stored as an exact value array.

    ``values`` is a read-only int64 array of shape (|domain|, ncoords(codomain)):
    row i holds the image of the i-th domain element in row-major order,
    reduced mod the codomain orders.  ``table`` is the same data as tuples,
    built on first use.  ``degree`` is the certified degree (None when the
    map is not polynomial of any degree).
    """

    domain: FinAbGroup
    codomain: FinAbGroup
    values: np.ndarray

    def __init__(self, domain, codomain, table):
        rows = [[_integer(c) for c in row] for row in table]
        if len(rows) != domain.order or any(len(r) != codomain.ncoords for r in rows):
            raise ValueError("table must have one value of ncoords(codomain) integers per domain element")
        values = codomain.residues(rows)
        values.flags.writeable = False
        vars(self).update(domain=domain, codomain=codomain, values=values)

    @classmethod
    def _of(cls, domain: FinAbGroup, codomain: FinAbGroup, values: np.ndarray) -> "PolyMap":
        """The map with value array ``values``: int64, reduced mod the codomain orders."""
        self = cls.__new__(cls)
        values.flags.writeable = False
        vars(self).update(domain=domain, codomain=codomain, values=values)
        return self

    def __eq__(self, other) -> bool:
        same = isinstance(other, PolyMap) and (self.domain, self.codomain) == (other.domain, other.codomain)
        return same and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.values.tobytes()))

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.values.tolist()))

    @classmethod
    def constant(cls, domain: FinAbGroup, value: GroupElement) -> "PolyMap":
        return cls._of(domain, value.group, np.tile(np.array(value.coords, dtype=np.int64), (domain.order, 1)))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise ValueError("element not in the domain")
        return GroupElement(self.codomain, tuple(self.values[self.domain.index_of(x.coords)].tolist()))

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: a gather through the indices of other's values."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return PolyMap._of(other.domain, self.codomain, self.values[other.values @ self.domain.radix])

    def translate_output(self, u: GroupElement) -> "PolyMap":
        """x -> self(x) + u."""
        if u.group != self.codomain:
            raise ValueError("translation lives in the wrong group")
        shifted = (self.values + np.array(u.coords, dtype=np.int64)) % self.codomain.moduli
        return PolyMap._of(self.domain, self.codomain, shifted)

    def is_zero(self) -> bool:
        return not self.values.any()

    @cached_property
    def degree(self) -> int | None:
        return degree(self)


def derivative(P: PolyMap, h: GroupElement) -> PolyMap:
    """Discrete derivative x -> P(x + h) - P(x)."""
    if h.group != P.domain:
        raise ValueError("direction not in the domain of P")
    (shift,) = P.domain.shift_index([P.domain.index_of(h.coords)])
    return PolyMap._of(P.domain, P.codomain, (P.values[shift] - P.values) % P.codomain.moduli)


def degree(P: PolyMap) -> int | None:
    """Certified degree of P, or None when P is not polynomial.

    Level i stacks the distinct i-fold generator derivatives of P (the
    operators commute; two value arrays are the same when their bytes are).
    The minimal d with the (d+1)-st level all zero is returned; if a level
    repeats before the zero state is reached, no level can ever vanish and
    None is returned.
    """
    dom = P.domain
    shifts = dom.shift_index(dom.radix[dom.moduli > 1])  # e_j has index radix_j
    level, cur, seen = 0, P.values[None], set()
    while cur.any():
        distinct = {t.tobytes(): t for t in cur}
        state = frozenset(distinct)
        if state in seen:
            return None
        seen.add(state)
        cur = np.stack(list(distinct.values()))
        cur = ((cur[:, shifts] - cur[:, None]) % P.codomain.moduli).reshape(-1, *P.values.shape)
        level += 1
    return max(level - 1, 0)


# ---------------------------------------------------------------------------
# binomial polynomials on Z


@dataclass(frozen=True)
class BinomialPoly:
    """x -> a_0 + sum_i a_i * C(x, i) on the integers, valued in a group.

    Binomials are exact integers, reduced lazily into the codomain.  With k
    coefficients and codomain torsion m, the function is periodic with
    minimal period dividing m^(k+1).
    """

    codomain: FinAbGroup
    constant: GroupElement
    coefficients: tuple[GroupElement, ...]

    def __call__(self, x: int) -> GroupElement:
        acc = self.constant
        for i, a in enumerate(self.coefficients, start=1):
            acc = acc + binom(x, i) * a
        return acc

    def minimal_period(self) -> int:
        """Smallest P >= 1 with values repeating at distance P everywhere."""
        m = self.codomain.torsion
        k = len(self.coefficients)
        window = m ** (k + 1)
        vals = [self(x) for x in range(2 * window)]
        if any(vals[x + window] != vals[x] for x in range(window)):
            raise PostconditionError(f"m^(k+1) = {window} is not a period")
        for p in range(1, window + 1):
            if window % p:
                continue  # the minimal period divides any period
            if all(vals[x + p] == vals[x] for x in range(window)):
                return p
        raise PostconditionError("unreachable: the window length is a period")


# ---------------------------------------------------------------------------
# cyclic lifts and the forward-difference matrix


def cyclic_lift(p: int, s: int, d: int) -> PolyMap:
    """Representative lift Z_{p^s} -> Z_{p^d}, n mod p^s -> n mod p^d.

    A cross-section of the reduction map, polynomial of degree at most
    (d-s)p^s + 1.
    """
    if d < s or s < 1:
        raise ValueError("need d >= s >= 1")
    dom = FinAbGroup((p**s,))
    cod = FinAbGroup((p**d,))
    lift = PolyMap._of(dom, cod, np.arange(p**s, dtype=np.int64)[:, None])
    deg = lift.degree
    if deg is None or deg > (d - s) * p**s + 1:
        raise PostconditionError(
            f"lift degree {deg} violates the bound {(d - s) * p**s + 1}"
        )
    return lift


def forward_difference_matrix(n: int) -> list[list[int]]:
    """Circulant forward-difference matrix: -1 diagonal, 1 superdiagonal."""
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = -1
        C[i][(i + 1) % n] = 1
    return C


def forward_difference_power(p: int, s: int, *, cap: int = 256) -> list[list[int]]:
    """Exact integer power C_{p^s}^{p^s} of the forward-difference matrix.

    Every entry is a multiple of p (asserted), which is what makes each
    further block of p^s derivatives of a representative lift gain a factor
    of p.  The power is taken in Python ints, so no entry overflows.
    """
    n = p**s
    if n > cap:
        raise CapExceeded(f"p^s = {n} exceeds cap {cap}")
    M = np.linalg.matrix_power(np.array(forward_difference_matrix(n), dtype=object), n).tolist()
    for row in M:
        for e in row:
            if e % p != 0:
                raise PostconditionError(f"entry {e} of C^{n} is not a multiple of {p}")
    return M


# ---------------------------------------------------------------------------
# decomposition of a surjection of p-groups


@dataclass(frozen=True)
class SurjectionDecomposition:
    """U o M o V = (core, id) o reduction, all exact.

    ``U`` (an automorphism of A) and ``V`` (an automorphism of B) are the
    row and column operations, as in ``groups.smith_normal_form``;
    ``reduction`` passes the ``passthrough`` domain coordinates (one per
    maximal-order codomain coordinate, count = ``m``) through unchanged and
    reduces the remaining maximal-order coordinates from Z_{p^n} to
    Z_{p^(n-1)}; ``core`` is the induced surjection between groups of
    torsion p^(n-1) obtained by forgetting the passthrough coordinates and
    maximal rows.
    """

    source: Homomorphism
    U: Homomorphism
    V: Homomorphism
    reduction: Homomorphism
    core: Homomorphism
    m: int
    passthrough: tuple[int, ...]  # pivot coordinates of reduction's codomain
    max_rows: tuple[int, ...]  # maximal-order codomain coordinates
    core_cols: tuple[int, ...]  # the domain coordinates that are not passthrough
    core_rows: tuple[int, ...]  # the codomain coordinates that are not maximal rows

    def middle(self) -> Homomorphism:
        """(core, id) as a map reduction.codomain -> source.codomain."""
        B2 = self.reduction.codomain
        A = self.source.codomain
        mat = [[0] * B2.ncoords for _ in range(A.ncoords)]
        for i_local, i in enumerate(self.core_rows):
            for j_local, j in enumerate(self.core_cols):
                mat[i][j] = self.core.matrix[i_local][j_local]
        for i, j in zip(self.max_rows, self.passthrough):
            mat[i][j] = 1
        return Homomorphism(B2, A, mat)

    def verify(self) -> None:
        """U and V are bijective, and U o M o V = (core, id) o P pointwise on
        all of B, by chained index gathers."""
        if not (self.U.is_bijective() and self.V.is_bijective()):
            raise PostconditionError("row or column operations are not invertible")
        composed = self.U.image_index[self.source.image_index[self.V.image_index]]
        if not np.array_equal(composed, self.middle().image_index[self.reduction.image_index]):
            raise PostconditionError("decomposition does not reproduce M")


def decompose_surjection(M: Homomorphism) -> SurjectionDecomposition:
    """Split a surjection of p-groups along its maximal-order coordinates.

    Gaussian elimination in the category of abelian p-groups, on integer
    matrices: every maximal-order codomain coordinate admits a unit pivot
    on a maximal-order domain coordinate (else M is not surjective); pivot
    rows and columns are cleared by shears that are automatically
    well-defined, the pivots pass through, and the remaining block is
    torsion p^(n-1).  The row operations accumulate in U and the column
    operations in V, each made a ``Homomorphism`` once at the end.  The
    pivot is the first usable coordinate in lexicographic order.
    """
    B, A = M.domain, M.codomain
    primes = {p for o in (*B.orders, *A.orders) if o > 1 for p in _factorize(o)}
    if len(primes) > 1:
        raise ValueError(f"mixed primes {sorted(primes)}: not a p-group surjection")
    if not M.is_surjective():
        raise ValueError("M is not surjective")
    (p,) = primes or {2}  # 2 for trivial groups
    a_exp = [_factorize(o).get(p, 0) for o in B.orders]
    b_exp = [_factorize(o).get(p, 0) for o in A.orders]
    n = max(a_exp, default=0)
    if n and max(b_exp, default=0) > n:
        raise ValueError("codomain torsion exceeds domain torsion: not surjective")

    # U M V = mid, with U and V accumulating the row and column operations
    mid = [list(row) for row in M.matrix]
    U, V = _eye(A.ncoords), _eye(B.ncoords)
    max_rows = tuple(i for i, e in enumerate(b_exp) if e == n and n > 0)
    pivots: list[int] = []
    for i in max_rows:
        pivot = next((j for j in range(B.ncoords) if a_exp[j] == n and j not in pivots and mid[i][j] % p), None)
        if pivot is None:
            raise PostconditionError("no unit pivot for a maximal-order row")
        pivots.append(pivot)
        # scale the pivot column so the pivot entry becomes 1 mod p^n
        u = pow(mid[i][pivot], -1, p**n)
        for row in mid + V:
            row[pivot] *= u
        # clear the rest of the pivot row with column shears
        for j in range(B.ncoords):
            if j != pivot and (r := mid[i][j] % A.orders[i]):
                for row in mid + V:
                    row[j] -= r * row[pivot]
        # clear the rest of the pivot column with row shears
        for i2 in range(A.ncoords):
            if i2 != i and (c := mid[i2][pivot] % A.orders[i2]):
                mid[i2] = [a - c * b for a, b in zip(mid[i2], mid[i])]
                U[i2] = [a - c * b for a, b in zip(U[i2], U[i])]

    # reduction: pivots pass through, other maximal-order coordinates drop to p^(n-1)
    B2 = FinAbGroup(tuple(o // p if n and a_exp[j] == n and j not in pivots else o for j, o in enumerate(B.orders)))
    P = Homomorphism(B, B2, _eye(B.ncoords))

    core_cols = tuple(j for j in range(B.ncoords) if j not in pivots)
    core_rows = tuple(i for i in range(A.ncoords) if i not in max_rows)
    core_dom = FinAbGroup(tuple(B2.orders[j] for j in core_cols))
    core_cod = FinAbGroup(tuple(A.orders[i] for i in core_rows))
    core = Homomorphism(core_dom, core_cod, [[mid[i][j] for j in core_cols] for i in core_rows])
    if not core.is_surjective():
        raise PostconditionError("core of the decomposition is not surjective")
    dec = SurjectionDecomposition(
        source=M,
        U=Homomorphism(A, A, U),
        V=Homomorphism(B, B, V),
        reduction=P,
        core=core,
        m=len(max_rows),
        passthrough=tuple(pivots),
        max_rows=max_rows,
        core_cols=core_cols,
        core_rows=core_rows,
    )
    dec.verify()
    return dec


# ---------------------------------------------------------------------------
# polynomial cross-sections


def _check_section(tau: Homomorphism, values: np.ndarray) -> None:
    """tau o iota = id on all of A, for the value array of iota: A -> B."""
    if not np.array_equal(tau.images(values) @ tau.codomain.radix, np.arange(tau.codomain.order)):
        raise PostconditionError("cross-section fails tau o iota = id")


def _pgroup_cross_section(M: Homomorphism) -> np.ndarray:
    """Values of a polynomial cross-section of a surjection of p-groups, by recursion.

    M = U^{-1} (core, id) P V^{-1}, so its section is
    V o section(P) o (section(core), id) o U, where section(P) is the
    identity on residues: it lifts each reduced coordinate to its
    representative.  Each level maps all of A at once; the recursion
    descends in the torsion exponent n and bottoms out at the trivial
    codomain.
    """
    B, A = M.domain, M.codomain
    if A.order == 1:
        return np.zeros((1, B.ncoords), dtype=np.int64)
    dec = decompose_surjection(M)
    w = dec.U.images(A.coords_array)
    lifted = np.empty((A.order, B.ncoords), dtype=np.int64)
    core = _pgroup_cross_section(dec.core)[w[:, list(dec.core_rows)] @ dec.core.codomain.radix]
    lifted[:, list(dec.core_cols)] = core
    lifted[:, list(dec.passthrough)] = w[:, list(dec.max_rows)]
    values = dec.V.images(lifted)
    _check_section(M, values)
    return values


def polynomial_cross_section(tau: Homomorphism) -> PolyMap:
    """Polynomial cross-section iota of a surjection tau: B ->> A.

    Splits both sides into their primary components (a homomorphism between
    coprime components is zero, so the conjugated matrix is block
    diagonal), sections each p-group block by the decomposition recursion,
    and recombines, for all of A at once.  tau o iota = id is checked on all
    of A and the certified degree is available as ``iota.degree``; the
    degree depends only on the torsions of A and B, not on their orders.
    """
    if not tau.is_surjective():
        raise ValueError("tau is not surjective")
    B, A = tau.domain, tau.codomain
    dec_b = primary_decompose(B)
    dec_a = primary_decompose(A)
    conj = dec_a.iso.compose(tau).compose(dec_b.iso_inv)
    parts = dec_a.iso.images(A.coords_array)
    lifted = np.zeros((A.order, dec_b.product.ncoords), dtype=np.int64)
    for p in dec_a.primes:
        if p not in dec_b.components:
            raise ValueError("tau cannot be surjective: codomain prime missing upstream")
        (a0, a1), (b0, b1) = dec_a.slices[p], dec_b.slices[p]
        Ap = dec_a.components[p]
        tau_p = Homomorphism(dec_b.components[p], Ap, [row[b0:b1] for row in conj.matrix[a0:a1]])
        lifted[:, b0:b1] = _pgroup_cross_section(tau_p)[parts[:, a0:a1] @ Ap.radix]
    values = dec_b.iso_inv.images(lifted)
    _check_section(tau, values)
    iota = PolyMap._of(A, B, values)
    if iota.degree is None:
        raise PostconditionError("constructed cross-section is not polynomial")
    return iota
