"""Complex and exact-phase functions on finite abelian groups, and their norms.

Functions carry a dense complex table; unimodular functions built from
rational phases also carry their exact phases theta in Q/Z (meaning
e(theta)) as integers a mod one N <= 2^53, their least common denominator.
The golden-value checks track sums of e(a/N) as integer count vectors
indexed by a mod N, converted to floating point only at the very end.

Norms:

  * ``gowers_norm``      - U^{k+1} by the standard recursion
                           ||f||_{U^{k+1}}^{2^{k+1}} = E_h ||D_h f||_{U^k}^{2^k}
                           with D_h f(x) = f(x+h) conj(f(x)), down to the
                           U^2 base ||g||_{U^2}^4 = sum_xi |g_hat(xi)|^4:
                           the k-1 fold derivatives are built as blocks of
                           rows, each transformed one chunk factor of the
                           exact character matrix at a time (U^1 is |E f|),
  * ``gowers_norm_exact``- the same value via exact phase counting: the
                           last derivative direction is the autocorrelation
                           of phase histograms, so |G|^(order-1) rows are
                           counted instead of |G|^order bincounts,
  * ``box_norm_4cycle``  - the 4-cycle (Gowers 2-box) norm on a designated
                           2-factor product,
  * ``cut_norm_lower``   - certified lower bounds for the (n,d)-cut norm by
                           alternating maximization over the witness family.

Projected phase polynomials phi_*tau(x) = E_{y in tau^{-1}(x)} e(phi(y)) are
computed with exact fiber enumeration; their obstruction inequality
|<f, phi_*tau>| <= ||f||_{U^{k+1}} and the expansion as an average of the
phase polynomials phi o iota_u over kernel translates iota_u = iota + u of a
polynomial cross-section are both implemented with exact verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceeded, PostconditionError, cap_power
from .groups import _BLOCK, _CHUNK, _CHUNK_RUNS, FinAbGroup, GroupElement, Homomorphism, kernel
from .polymaps import PolyMap

__all__ = [
    "GroupFunction",
    "ProjectedPhase",
    "ProjectedAverage",
    "ObstructionReport",
    "CutNormResult",
    "gowers_norm",
    "gowers_norm_exact",
    "correlation",
    "phase",
    "project_phase",
    "obstruction_check",
    "projected_as_average",
    "box_norm_4cycle",
    "cut_norm_lower",
    "cut_norm_work",
    "fourier_coefficients",
]

_TOL = 1e-9


@lru_cache(maxsize=_CHUNK_RUNS)
def _character_factor(orders: tuple[int, ...]) -> np.ndarray:
    """W[x, xi] = e(-sum_j x_j xi_j / m_j) on one chunk of at most _CHUNK elements.

    The phase sum_j x_j xi_j E/m_j, with E the lcm of the chunk's orders, is
    an exact integer mod E, then a root of unity of that order.
    """
    E = math.lcm(*orders)
    X = FinAbGroup(orders).coords_array
    phase = X @ (X * (E // np.array(orders, dtype=np.int64))).T % E
    out = np.exp(-2j * np.pi * np.arange(E) / E)[phase]
    out.flags.writeable = False
    return out


class GroupFunction:
    """Function on a finite abelian group: complex table, optional exact phases e(phase_num / modulus)."""

    def __init__(self, group: FinAbGroup, values):
        self.group = group
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (group.order,):
            raise ValueError("value table must have one entry per element")
        self.phase_num = self.modulus = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _exact(cls, group: FinAbGroup, num, N: int) -> "GroupFunction":
        """x -> e(num[x]/N), over the least common denominator N; past 2^53, num/N stops rounding exactly."""
        g = math.gcd(N, int(np.gcd.reduce(num)))
        if (N := N // g) > 2**53:
            raise CapExceeded(f"phase modulus {N} exceeds 2^53")
        num = (num // g).astype(np.int64)
        f = cls(group, np.exp(2j * np.pi * (num / N)))
        num.flags.writeable = False
        f.phase_num, f.modulus = num, N
        return f

    @classmethod
    def _from_ratios(cls, group: FinAbGroup, pairs) -> "GroupFunction":
        """x -> e(n/d) for the pair (n, d) of x: Python ints of any size, d != 0."""
        N = 1
        for d in {abs(d) // math.gcd(n, d) for n, d in pairs}:  # the reduced denominators
            if (N := math.lcm(N, d)) > 2**53:
                raise CapExceeded(f"phase modulus {N} exceeds 2^53")
        return cls._exact(group, np.array([n * N // d % N for n, d in pairs], dtype=np.int64), N)

    @classmethod
    def from_phases(cls, group: FinAbGroup, phases) -> "GroupFunction":
        """Exactly unimodular function x -> e(theta_x), theta in Q/Z."""
        return cls._from_ratios(group, [(int(p.numerator), int(p.denominator)) for p in map(Fraction, phases)])

    @classmethod
    def ones(cls, group: FinAbGroup) -> "GroupFunction":
        return cls._exact(group, np.zeros(group.order, dtype=np.int64), 1)

    @classmethod
    def character(cls, group: FinAbGroup, t) -> "GroupFunction":
        """chi_t(x) = e(sum_j t_j x_j / m_j), an integer mod E = lcm(m_j) per element."""
        E = group.torsion
        w = np.array([tj % mj * (E // mj) for tj, mj in zip(t, group.orders, strict=True)], dtype=np.int64)
        return cls._exact(group, (group.coords_array * w % E).sum(axis=1) % E, E)

    # -- basic structure -----------------------------------------------------

    def is_exact(self) -> bool:
        return self.phase_num is not None

    @cached_property
    def phases(self) -> tuple[Fraction, ...] | None:
        """The exact phases as reduced fractions in [0, 1), or None."""
        return None if self.phase_num is None else tuple(Fraction(a, self.modulus) for a in self.phase_num.tolist())

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1 + tol)

    def assert_one_bounded(self) -> None:
        if not self.is_one_bounded():
            raise ValueError("function is not 1-bounded")

    # -- pointwise operations (exactness is preserved when possible) ---------

    def multiply(self, other: "GroupFunction") -> "GroupFunction":
        if other.group != self.group:
            raise ValueError("functions on different groups")
        if self.is_exact() and other.is_exact():
            N = math.lcm(self.modulus, other.modulus)
            a, b = (f.phase_num.astype(object) * (N // f.modulus) for f in (self, other))
            return GroupFunction._exact(self.group, (a + b) % N, N)
        return GroupFunction(self.group, self.values * other.values)

    def translate(self, a: GroupElement) -> "GroupFunction":
        """x -> f(x + a)."""
        if a.group != self.group:
            raise ValueError("translation by an element of a different group")
        G = self.group
        (row,) = G.shift_index([G.index_of(a.coords)])
        if self.is_exact():
            return GroupFunction._exact(G, self.phase_num[row], self.modulus)
        return GroupFunction(G, self.values[row])


# ---------------------------------------------------------------------------
# Gowers norms


def _derivative_blocks(M: np.ndarray, depth: int, G: FinAbGroup, diff):
    """The depth-fold derivatives D_h g(x) = diff(g(x+h), g(x)) of each row g of M, in blocks of about _BLOCK."""
    if depth == 0:
        yield M
        return
    R, n = M.shape
    step = max(1, _BLOCK // (R * n))
    for i in range(0, n, step):
        D = diff(M[:, G.shift_index(np.arange(i, min(i + step, n)))], M[:, None, :]).reshape(-1, n)
        yield from _derivative_blocks(D, depth - 1, G, diff)


def _transform(M: np.ndarray, G: FinAbGroup) -> np.ndarray:
    """M W for the character matrix W of G, the Kronecker product of the chunk factors.

    Each step contracts the leading chunk axis and moves it last, so the axes end in order.  An axis
    longer than _CHUNK goes through np.fft.fft; on at most _CHUNK elements the one step is M @ W itself."""
    F = M.T
    for run in G.chunks:
        s = math.prod(run)
        F = F.reshape(s, -1).T
        F = F @ _character_factor(run) if s <= _CHUNK else np.fft.fft(F)
    return F


def gowers_norm(f: GroupFunction, order: int, *, cap: int = 2**30) -> float:
    """Gowers uniformity norm ||f||_{U^order} (order = k+1 >= 1).

    Order 1 is |E f|.  For order >= 2 the norm power is the average over
    (h_1, ..., h_{order-2}) of ||D_{h_1..h_{order-2}} f||_{U^2}^4, and
    ||g||_{U^2}^4 = sum_xi |g_hat(xi)|^4 (Tao-Vu, Additive Combinatorics,
    11.1).  The derivative rows are built in blocks of about 2^17 entries,
    each block M goes through the exact character matrix W of G one chunk
    factor at a time, F = M W, and the power is sum |F|^4 / |G|^(order+2).
    ``cap`` bounds |G|^order, more than the chunked products make.  Memory
    is a few blocks and the chunk tables, each at most _CHUNK^2 entries.
    """
    if order < 1:
        raise ValueError("the norm order must be at least 1")
    G = f.group
    n = G.order
    cap_power(n, order, cap, "|G|^order")
    if order == 1:
        p = abs(complex(f.values.mean())) ** 2
    else:
        p = 0.0
        for M in _derivative_blocks(f.values[None, :], order - 2, G, lambda a, b: a * np.conj(b)):
            F = _transform(M, G)
            S = F.real**2 + F.imag**2
            p += float(np.sum(S * S))
        p /= n ** (order + 2)
    return max(p, 0.0) ** (1.0 / 2**order)


@dataclass(frozen=True)
class ExactNorm:
    """Exact value of a Gowers-norm power: (sum_a counts[a] e(a/N)) / scale."""

    modulus: int
    counts: tuple[int, ...]
    scale: int
    order: int

    @property
    def power_value(self) -> float:
        terms = [(c, 2 * math.pi * a / self.modulus) for a, c in enumerate(self.counts) if c]
        re = math.fsum(c * math.cos(t) for c, t in terms)
        im = math.fsum(c * math.sin(t) for c, t in terms)
        if abs(im) > 1e-6 * max(1.0, abs(re)):
            raise PostconditionError("norm power has a nonreal exact value")
        return re / self.scale

    @property
    def value(self) -> float:
        return max(self.power_value, 0.0) ** (1.0 / 2**self.order)


def _gram_diagonals(M: np.ndarray, N: int) -> np.ndarray:
    """counts[c] = sum_a (H^T H)[a, a + c mod N] for the row histograms H[r, a] = #{x : M[r, x] = a}:
    H is one bincount, and the Gram matrix H^T H comes a block of rows of about _BLOCK entries at a time."""
    R, c = M.shape[0], np.arange(N)
    H = np.bincount((M + (N * np.arange(R))[:, None]).ravel(), minlength=R * N).reshape(R, N)
    counts, step = np.zeros(N, dtype=np.int64), max(1, _BLOCK // N)
    for a in range(0, N, step):
        rows = np.arange(a, min(a + step, N))[:, None]
        counts += (H[:, a : a + step].T @ H)[rows - a, (rows + c) % N].sum(axis=0)
    return counts


def _difference_counts(M: np.ndarray, N: int) -> np.ndarray:
    """counts[c] = #{(r, x, y) : M[r, y] - M[r, x] = c mod N}, in runs of x of about 2^22 differences.

    The entries lie in [0, N), so M[r, y] - M[r, x] + N lies in (0, 2N): each
    run is counted in 2N bins, and bin c + N folds onto bin c.
    """
    counts = np.zeros(N, dtype=np.int64)
    step, lifted = max(1, 2**22 // M.size), M + N
    for j in range(0, M.shape[1], step):
        shifted = np.bincount((lifted[:, None, :] - M[:, j : j + step, None]).ravel(), minlength=2 * N)
        counts += shifted[:N] + shifted[N:]
    return counts


def gowers_norm_exact(f: GroupFunction, order: int, *, cap: int = 2**24) -> ExactNorm:
    """U^order norm of an exact-phase function by integer phase counting.

    ``counts[c]`` is the number of (x, h_1, ..., h_order) in G^(order+1)
    whose iterated derivative D_{h_1..h_order} P(x) is c mod N, and the
    norm power is sum_c counts[c] e(c/N) / |G|^(order+1).  The last
    direction is never enumerated: for a fixed derivative table D the map
    (x, h) -> (x, x+h) is a bijection of G x G, so
    sum_h #{x : D(x+h) - D(x) = c} = #{(x, y) : D(y) - D(x) = c}, the
    cyclic autocorrelation of the phase histogram of D.  The |G|^(order-1)
    tables D come in blocks of rows of about _BLOCK entries, and the counts
    add up over rows.  When N <= |G| they are read off the N x N Gram
    matrix sum H^T H of the row histograms H along its diagonals
    b - a = c, a block of its rows at a time; otherwise the differences
    within each row are counted directly, about 2^22 at a time in a
    2N-long transient bincount.  Every
    intermediate quantity is an integer, and ``cap`` bounds the number of
    counted tuples, |G|^(order+1), and the N-long count vector.
    """
    if not f.is_exact():
        raise ValueError("exact norm needs exact phases")
    if order < 1:
        raise ValueError("the norm order must be at least 1")
    G = f.group
    N, P = f.modulus, f.phase_num
    cap_power(G.order, order + 1, cap, "|G|^(order+1)")
    if N > cap:
        raise CapExceeded(f"the phase modulus N = {N} exceeds cap {cap}")
    tables = _derivative_blocks(P[None, :], order - 1, G, lambda a, b: (a - b) % N)
    counts = sum((_gram_diagonals if N <= G.order else _difference_counts)(M, N) for M in tables)
    return ExactNorm(N, tuple(int(c) for c in counts), G.order ** (order + 1), order)


def correlation(f: GroupFunction, g: GroupFunction) -> complex:
    """E_x f(x) conj(g(x))."""
    if f.group != g.group:
        raise ValueError("functions on different groups")
    return complex((f.values * np.conj(g.values)).mean())


def fourier_coefficients(f: GroupFunction) -> np.ndarray:
    """f_hat(t) = E_x f(x) e(-sum t_j x_j / m_j), flattened in element order."""
    if f.group.ncoords == 0:
        return f.values.copy()
    tensor = f.values.reshape(f.group.orders)
    return np.fft.fftn(tensor).reshape(-1) / f.group.order


# ---------------------------------------------------------------------------
# phase polynomials and projected phases


def phase(P: PolyMap) -> GroupFunction:
    """e(P(x)/N) for a polynomial map into a cyclic group Z_N."""
    if P.codomain.ncoords != 1:
        raise ValueError("phase polynomials take values in a single cyclic group")
    if P.degree is None:
        raise ValueError("map is not polynomial of any degree")
    return GroupFunction._exact(P.domain, P.values[:, 0], P.codomain.orders[0])


@dataclass(frozen=True)
class ProjectedPhase:
    """phi_*tau(x) = E_{y in tau^{-1}(x)} e(phi(y)), with exact fiber data.

    ``fiber_counts[x, a]``, a read-only |A| x modulus int64 array, counts the
    y in the fiber over x with phase a/modulus; ``function`` is the induced
    table on the codomain of tau.
    ``torsion`` is (codomain torsion, domain torsion) and
    ``rank_preserving`` records rk(domain) = rk(codomain).
    """

    phi: PolyMap
    tau: Homomorphism
    function: GroupFunction
    fiber_counts: np.ndarray
    fiber_size: int
    modulus: int
    degree: int
    torsion: tuple[int, int]
    rank_preserving: bool


def project_phase(phi: PolyMap, tau: Homomorphism) -> ProjectedPhase:
    """Fiberwise exact average of e(phi) along a surjection tau."""
    if phi.codomain.ncoords != 1:
        raise ValueError("phase polynomials take values in a single cyclic group")
    if phi.domain != tau.domain:
        raise ValueError("phi and tau must share their domain")
    if not tau.is_surjective():
        raise ValueError("tau is not surjective")
    deg = phi.degree
    if deg is None:
        raise ValueError("phi is not polynomial of any degree")
    B, A = tau.domain, tau.codomain
    N = phi.codomain.orders[0]
    counts = np.bincount(tau.image_index * N + phi.values[:, 0], minlength=A.order * N).reshape(A.order, N)
    counts.flags.writeable = False
    fiber = B.order // A.order
    if (counts.sum(axis=1) != fiber).any():
        raise PostconditionError("fibers of a surjective homomorphism have equal size")
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    values = np.array([np.dot(c, roots) / fiber for c in counts])
    fn = GroupFunction(A, values)
    if not fn.is_one_bounded():
        raise PostconditionError("a fiber average of unimodular values exceeded 1")
    return ProjectedPhase(
        phi=phi,
        tau=tau,
        function=fn,
        fiber_counts=counts,
        fiber_size=fiber,
        modulus=N,
        degree=deg,
        torsion=(A.torsion, B.torsion),
        rank_preserving=(A.rank == B.rank),
    )


@dataclass(frozen=True)
class ObstructionReport:
    correlation: float
    norm: float
    order: int
    margin: float


def obstruction_check(
    f: GroupFunction, pp: ProjectedPhase, *, order: int | None = None, tol: float = _TOL
) -> ObstructionReport:
    """Check |<f, phi_*tau>| <= ||f||_{U^{k+1}} for a degree-k projected phase.

    The bound holds because a projected phase polynomial has U^{k+1}-dual
    norm at most 1, so a violation can only mean a bug: it raises.
    """
    f.assert_one_bounded()
    if order is None:
        order = pp.degree + 1
    if order < pp.degree + 1:
        raise ValueError("norm order must be at least degree + 1")
    c = abs(correlation(f, pp.function))
    n = gowers_norm(f, order)
    if c > n + tol:
        raise PostconditionError(
            f"obstruction inequality violated: |corr| = {c} > U^{order} = {n}"
        )
    return ObstructionReport(c, n, order, n + tol - c)


@dataclass(frozen=True)
class ProjectedAverage:
    """The family e(phi o iota_u), u in ker(tau), averaging to phi_*tau."""

    members: tuple[GroupFunction, ...]
    member_degrees: tuple[int, ...]
    kernel_elements: tuple[GroupElement, ...]


def projected_as_average(pp: ProjectedPhase, iota: PolyMap) -> ProjectedAverage:
    """Expand a projected phase as an exact average of phase polynomials.

    iota must be a polynomial cross-section of tau; then iota_u = iota + u
    for u in ker(tau) enumerates every fiber exactly once, so
    E_u e(phi(iota_u(x))) = phi_*tau(x) holds exactly (checked as a
    multiset identity on every x), and each phi o iota_u is polynomial of
    degree at most deg(iota) * deg(phi) (certified).
    """
    tau = pp.tau
    B, A = tau.domain, tau.codomain
    if iota.domain != A or iota.codomain != B:
        raise ValueError("iota must map the codomain of tau into its domain")
    if not np.array_equal(tau.image_index[iota.values @ B.radix], np.arange(A.order)):
        raise ValueError("iota is not a cross-section of tau")
    deg_iota = iota.degree
    if deg_iota is None:
        raise ValueError("iota is not polynomial of any degree")
    ker = kernel(tau).sorted_elements
    N = pp.modulus
    bound = deg_iota * pp.degree
    members = [pp.phi.compose(iota.translate_output(u)) for u in ker]
    for member in members:
        if member.degree is None or member.degree > max(bound, 0):
            raise PostconditionError(
                f"member degree {member.degree} exceeds deg(iota)*deg(phi) = {bound}"
            )
    # exact average identity: per x, the multiset of member phases equals the fiber
    phases = np.stack([member.values[:, 0] for member in members])
    counts = np.bincount((np.arange(A.order) * N + phases).ravel(), minlength=A.order * N)
    if not np.array_equal(counts.reshape(A.order, N), pp.fiber_counts):
        raise PostconditionError("kernel translates do not reproduce the fiber")
    return ProjectedAverage(tuple(map(phase, members)), tuple(m.degree for m in members), ker)


# ---------------------------------------------------------------------------
# box and cut norms


def box_norm_4cycle(f: GroupFunction, split: int) -> float:
    """4-cycle norm on the product of the first ``split`` coordinates and the rest.

    ||f||^4 = E_{a1,a2,b1,b2} f(a1,b1) conj f(a2,b1) conj f(a1,b2) f(a2,b2),
    computed through the Gram matrix of the rows.
    """
    G = f.group
    if not 1 <= split <= G.ncoords - 1:
        raise ValueError("a 2-factor split needs 1 <= split <= ncoords - 1")
    na = math.prod(G.orders[:split])
    nb = math.prod(G.orders[split:])
    F = f.values.reshape(na, nb)
    gram = (F @ np.conj(F.T)) / nb
    val4 = float(np.mean(np.abs(gram) ** 2))
    return max(val4, 0.0) ** 0.25


@dataclass(frozen=True)
class CutNormResult:
    """Best value and witness family; ``sweeps`` is how many the winning restart ran."""

    value: float
    witnesses: dict
    restarts: int
    sweeps: int


def cut_norm_work(G: FinAbGroup, d: int, restarts: int, iters: int) -> int:
    """The work that ``cut_norm_lower`` compares with its cap: (restarts + 1) * iters * C(n, d)^2 * |G|.

    An upper bound: a sweep forms L(L-1)/2 + L <= L^2 products of |G| entries
    per restart, with L = C(n, d), since each block update reuses the prefix
    product of the blocks before it.
    """
    return (restarts + 1) * iters * math.comb(G.ncoords, d) ** 2 * G.order


def cut_norm_lower(
    f: GroupFunction,
    d: int,
    *,
    restarts: int = 8,
    iters: int = 25,
    seed: int = 0,
    cap: int = 2**30,
) -> CutNormResult:
    """Certified lower bound for the (n, d)-cut norm, with witnesses.

    Alternating maximization: with all other witnesses fixed, the optimal
    u_B takes the unit phase of the conditional sum, so the objective
    |E_a f(a) prod_B conj u_B(a_B)| is nondecreasing along every sweep.
    Deterministic all-ones initialization plus ``restarts`` seeded random
    unimodular restarts; the best finite value and its witness family are
    returned (ValueError if no restart has one).  The value never exceeds
    the true cut norm and every witness is exactly 1-bounded.  ``cap``
    bounds the predicted work before any sweep runs: at most
    (restarts + 1) * iters sweeps of C(n, d) block updates, each charged
    C(n, d) products of |G| entries.

    A sweep keeps one prefix product, the tensor times the conjugate
    witnesses of the blocks already updated.  Block j's conditional sum is
    that prefix times the witnesses of blocks j+1, ..., L-1 (L = C(n, d)),
    and the prefix then takes block j's new witness, so a sweep forms
    L(L-1)/2 + L products, each the same left fold as the full product.
    After the last block the prefix is the objective tensor, whose mean is
    one row reduction over all restarts per sweep.

    The restarts run side by side on a leading restart axis, in chunks of
    at most max(1, _BLOCK // |G|) restarts, so about _BLOCK entries at a
    time.  Each restart does the same float operations in the same order
    as when run alone, and stops at its own first sweep that gains less
    than 1e-13, so value and witnesses are identical to running the
    restarts one by one.
    """
    G = f.group
    n = G.ncoords
    if not 1 <= d <= n - 1:
        raise ValueError("need 1 <= d <= n-1")
    if iters < 1:
        raise ValueError(f"need iters >= 1, got {iters}")
    if restarts < 0:
        raise ValueError(f"need restarts >= 0, got {restarts}")
    work = cut_norm_work(G, d, restarts, iters)
    if work > cap:
        raise CapExceeded(f"predicted cut-norm work {work} exceeds cap {cap}")
    tensor = f.values.reshape(G.orders)
    blocks = list(combinations(range(n), d))
    shapes = [tuple(G.orders[i] for i in blk) for blk in blocks]
    # a witness broadcast against the tensor behind the restart axis, and the axes its update sums
    spread = [(-1,) + tuple(G.orders[i] if i in blk else 1 for i in range(n)) for blk in blocks]
    axes = [tuple(1 + i for i in range(n) if i not in blk) for blk in blocks]
    rng = np.random.default_rng(seed)
    chunk = max(1, _BLOCK // G.order)
    best_val, best_ws, best_sweeps = -1.0, None, 0
    for first in range(0, restarts + 1, chunk):
        starts = [
            [np.ones(s, dtype=np.complex128) if r == 0 else np.exp(2j * np.pi * rng.random(s)) for s in shapes]
            for r in range(first, min(first + chunk, restarts + 1))
        ]
        R = len(starts)
        ws = [np.stack(col) for col in zip(*starts)]
        conj_ws = [np.conj(w).reshape(sp) for w, sp in zip(ws, spread)]
        prev = [-1.0] * R
        sweeps = [0] * R
        active = np.ones(R, dtype=bool)
        for _ in range(iters):
            if not active.any():
                break
            live = active.reshape((R,) + (1,) * d)
            prefix = tensor
            for j in range(len(blocks)):
                t = prefix
                for cw in conj_ws[j + 1 :]:
                    t = t * cw
                s = t.sum(axis=axes[j])
                mag = np.abs(s)
                big = mag > 1e-15
                ws[j] = np.where(live & big, s / np.where(big, mag, 1.0), ws[j])
                conj_ws[j] = np.conj(ws[j]).reshape(spread[j])
                prefix = prefix * conj_ws[j]
            means = prefix.reshape(R, -1).mean(axis=1)
            for r in np.flatnonzero(active):
                val = abs(complex(means[r]))
                sweeps[r] += 1
                if val - prev[r] < 1e-13:
                    active[r] = False
                prev[r] = val
        for r in range(R):
            if prev[r] > best_val and math.isfinite(prev[r]):
                best_val, best_sweeps = prev[r], sweeps[r]
                best_ws = {blk: w[r].copy() for blk, w in zip(blocks, ws)}
    if best_ws is None:
        raise ValueError("no restart ended with a finite objective: the values overflow")
    return CutNormResult(best_val, best_ws, restarts, best_sweeps)
