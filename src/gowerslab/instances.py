"""Seeded generators for test and experiment instances.

Everything here is driven by a ``random.Random`` so that a (seed, parameters)
pair reproduces the same instance bit for bit: random groups and subgroups,
surjections built from canonical projections conjugated by random
automorphisms, phase polynomials of certified degree, bounded functions,
and the coboundary-plus-pullback cocycle family.
"""

from __future__ import annotations

import random
from math import gcd

import numpy as np

from .groups import FinAbGroup, Homomorphism, Subgroup
from .harmonics import GroupFunction
from .nilcube import Cocycle, FilteredGroupNilspace, coboundary
from .polymaps import PolyMap

__all__ = [
    "random_pgroup",
    "random_subgroup",
    "random_automorphism",
    "random_surjection",
    "random_phase_polynomial",
    "random_unimodular_function",
    "random_bounded_function",
    "random_cocycle",
    "bilinear_function",
]


def random_pgroup(rng: random.Random, p: int, *, max_exponent=3, max_coords=3, max_order=3**6) -> FinAbGroup:
    while True:
        k = rng.randint(1, max_coords)
        orders = tuple(p ** rng.randint(1, max_exponent) for _ in range(k))
        G = FinAbGroup(orders)
        if G.order <= max_order:
            return G


def random_subgroup(rng: random.Random, G: FinAbGroup, *, max_gens=2) -> Subgroup:
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        gens.append(G.element(tuple(rng.randrange(m) for m in G.orders)))
    return Subgroup.from_generators(G, gens)


def random_automorphism(rng: random.Random, G: FinAbGroup, *, steps=8) -> Homomorphism:
    """Composition of elementary automorphisms: swaps, unit scalings, shears.

    A shear adding c * coordinate j into coordinate i is well-defined and
    invertible whenever m_i / gcd(m_i, m_j) divides c.
    """
    n = G.ncoords
    auto = Homomorphism.identity(G)
    if n == 0:
        return auto
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if G.orders[i] == G.orders[j]
            ]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            swap = [[int(a == b) for b in range(n)] for a in range(n)]
            swap[i], swap[j] = swap[j], swap[i]
            elementary = Homomorphism(G, G, swap)
        elif kind == 1:
            i = rng.randrange(n)
            m = G.orders[i]
            units = [u for u in range(1, m) if gcd(u, m) == 1] or [1]
            elementary = Homomorphism.elementary(G, i, i, rng.choice(units))
        else:
            if n < 2:
                continue
            i = rng.randrange(n)
            j = rng.choice([t for t in range(n) if t != i])
            step = G.orders[i] // gcd(G.orders[i], G.orders[j])
            elementary = Homomorphism.elementary(G, i, j, step * rng.randrange(max(G.orders[i] // step, 1)))
        auto = elementary.compose(auto)
    return auto


def random_surjection(
    rng: random.Random,
    *,
    primes=(2, 3),
    max_exponent=3,
    max_coords_a=2,
    extra_coords=1,
    max_order_b=3**5,
    torsion_cap=None,
) -> Homomorphism:
    """Random surjective homomorphism B ->> A.

    Built as (random automorphism of A) o (canonical projection) o (random
    automorphism of B), where B extends A by extra cyclic factors and by
    raising coordinate orders; surjectivity holds by construction and is
    re-verified by the consumer.  The codomain torsion divides the domain
    torsion, so ``torsion_cap`` constrains both sides.
    """
    while True:
        ka = rng.randint(1, max_coords_a)
        a_orders = []
        b_orders = []
        for _ in range(ka):
            p = rng.choice(primes)
            ea = rng.randint(1, max_exponent - 1)
            eb = rng.randint(ea, max_exponent)
            a_orders.append(p**ea)
            b_orders.append(p**eb)
        for _ in range(rng.randint(0, extra_coords)):
            p = rng.choice(primes)
            b_orders.append(p ** rng.randint(1, max_exponent))
        A = FinAbGroup(tuple(a_orders))
        B = FinAbGroup(tuple(b_orders))
        if B.order > max_order_b:
            continue
        if torsion_cap is not None and B.torsion > torsion_cap:
            continue
        proj = Homomorphism(
            B, A, [[1 if i == j else 0 for j in range(B.ncoords)] for i in range(A.ncoords)]
        )
        tau = random_automorphism(rng, A).compose(proj).compose(random_automorphism(rng, B))
        if tau.is_surjective():
            return tau


def random_phase_polynomial(rng: random.Random, B: FinAbGroup, k: int, *, terms=3) -> PolyMap:
    """Random polynomial map B -> Z_N of certified degree <= k.

    A sum of multilinear monomial terms c * prod_{j in S} x_j / g_S with
    g_S = gcd of the orders over S (always well-defined on the group, and
    of degree <= |S|), plus a random constant.  The certified degree of the
    result is checked to stay below k.
    """
    N = B.torsion
    live = [j for j, m in enumerate(B.orders) if m > 1]
    values = np.full(B.order, rng.randrange(N), dtype=np.int64)  # the constant term
    for _ in range(terms if live else 0):
        S = rng.sample(live, rng.randint(1, max(1, min(k, len(live)))))
        g = gcd(*(B.orders[j] for j in S))
        c = rng.randrange(g)
        mono = np.ones(B.order, dtype=np.int64)
        for j in S:  # reduced mod N as it grows, so exact for any k
            mono = mono * B.coords_array[:, j] % N
        values = (values + c * (N // g) * mono) % N
    P = PolyMap._of(B, FinAbGroup((N,)), values[:, None])
    d = P.degree
    if d is None or d > k:
        raise AssertionError("generator produced a table of unexpected degree")
    return P


def random_unimodular_function(rng: random.Random, G: FinAbGroup, *, denominator=360) -> GroupFunction:
    num = np.array([rng.randrange(denominator) for _ in range(G.order)], dtype=np.int64)
    return GroupFunction._exact(G, num, denominator)


def random_bounded_function(rng: random.Random, G: FinAbGroup) -> GroupFunction:
    """r e(theta) per element, with r and theta drawn in turn."""
    draws = np.array([rng.random() for _ in range(2 * G.order)])
    return GroupFunction(G, draws[0::2] * np.exp(2j * np.pi * draws[1::2]))


def random_cocycle(
    rng: random.Random,
    y1: FilteredGroupNilspace,
    y2: FilteredGroupNilspace,
    Z: FinAbGroup,
    dim: int,
) -> tuple[Cocycle, dict, dict]:
    """Cocycle = coboundary(g0) + pullback of a coboundary on Y2.

    Returns (rho, g0, g2) so the split can be checked against the
    generating data.  The pullback of the coboundary of g2: Y2 -> Z along
    the second projection is the coboundary of g2 o pi_2.
    """
    X = y1.product(y2)
    G, G2 = X.group, y2.group
    g0 = {
        x.coords: Z.element(tuple(rng.randrange(m) for m in Z.orders))
        for x in G.elements()
    }
    g2 = {
        y.coords: Z.element(tuple(rng.randrange(m) for m in Z.orders))
        for y in G2.elements()
    }
    g0a, g2a = (
        np.array([v.coords for v in g.values()], dtype=np.int64).reshape(len(g), Z.ncoords)
        for g in (g0, g2)
    )
    # sigma is additive in g, and x = (y1, y2) has row-major index
    # |Y2| * index(y1) + index(y2)
    rho = coboundary(X, Z, dim, g0a + g2a[np.arange(G.order) % G2.order])
    return rho, g0, g2


def bilinear_function(l: int) -> GroupFunction:
    """f(x, y) = e(1/2 sum_i x_i y_i) on Z_2^l x Z_2^l."""
    G = FinAbGroup((2,) * (2 * l))
    X = G.coords_array
    return GroupFunction._exact(G, (X[:, :l] * X[:, l:]).sum(axis=1) % 2, 2)
