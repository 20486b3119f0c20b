"""Reference mathematics written apart from the library.

The benchmark checks every record against these functions, so none of them
calls into ``gowerslab``.  Groups are tuples of cyclic orders; elements are
row-major indices or coordinate rows of ``elements(orders)``.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# finite abelian groups as index arrays


def elements(orders) -> np.ndarray:
    """All elements as coordinate rows, in lexicographic (row-major) order."""
    orders = tuple(orders)
    if not orders:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(m) for m in orders], indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)


def index(coords: np.ndarray, orders) -> np.ndarray:
    """Row-major index of each coordinate row (coords are reduced first)."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(orders))
    out = np.zeros(coords.shape[0], dtype=np.int64)
    for j, m in enumerate(orders):
        out = out * m + coords[:, j] % m
    return out


def add_table(orders) -> np.ndarray:
    """T[h, x] = index of h + x."""
    E = elements(orders)
    n = E.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for j, m in enumerate(orders):
        out = out * m + (E[:, j][:, None] + E[:, j][None, :]) % m
    return out


def closure(orders, gens) -> np.ndarray:
    """Sorted indices of the subgroup generated by ``gens``."""
    orders = tuple(orders)
    span = np.zeros((1, len(orders)), dtype=np.int64)
    for g in gens:
        g = np.asarray(g, dtype=np.int64) % np.array(orders, dtype=np.int64)
        mult = [np.zeros(len(orders), dtype=np.int64)]
        x = g.copy()
        while x.any():
            mult.append(x)
            x = (x + g) % orders
        mult = np.array(mult)
        allc = (span[:, None, :] + mult[None, :, :]).reshape(-1, len(orders))
        span = _decode(np.unique(index(allc, orders)), orders)
    return np.unique(index(span, orders))


def _decode(idx: np.ndarray, orders) -> np.ndarray:
    out = np.zeros((len(idx), len(orders)), dtype=np.int64)
    rem = idx.copy()
    for j in range(len(orders) - 1, -1, -1):
        out[:, j] = rem % orders[j]
        rem //= orders[j]
    return out


def multiples(idx: np.ndarray, orders, n: int) -> np.ndarray:
    """Sorted indices of {n x : x in the given set}."""
    return np.unique(index(_decode(idx, orders) * n, orders))


def apply_matrix(matrix, coords: np.ndarray, cod_orders) -> np.ndarray:
    """Images (as coordinate rows) of coordinate rows under an integer matrix."""
    M = np.array(matrix, dtype=np.int64).reshape(len(cod_orders), coords.shape[1])
    return (coords @ M.T) % np.array(cod_orders, dtype=np.int64)


def factorize(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exponent(orders) -> int:
    e = 1
    for m in orders:
        e = e * m // math.gcd(e, m)
    return e


def is_pure(orders, H: np.ndarray) -> bool:
    """H ∩ nA = nH for every n dividing exp(A) (Prüfer–Baer)."""
    A = np.arange(math.prod(orders))
    e = exponent(orders)
    for n in range(2, e + 1):
        if e % n:
            continue
        nA = multiples(A, orders, n)
        nH = multiples(H, orders, n)
        if not np.array_equal(np.intersect1d(H, nA), nH):
            return False
    return True


def splits(orders, H: np.ndarray, K: np.ndarray) -> bool:
    """A = H (+) K: trivial intersection and |H||K| = |A|."""
    return (
        len(np.intersect1d(H, K)) == 1
        and len(H) * len(K) == math.prod(orders)
    )


# ---------------------------------------------------------------------------
# polynomial maps by finite differences


def shift_indices(orders) -> list[np.ndarray]:
    """For each standard generator e_j (m_j > 1), the index map x -> x + e_j."""
    E = elements(orders)
    out = []
    for j, m in enumerate(orders):
        if m > 1:
            S = E.copy()
            S[:, j] = (S[:, j] + 1) % m
            out.append(index(S, orders))
    return out


def derivatives(table: np.ndarray, shifts, cod_orders, n: int) -> list[np.ndarray]:
    """Every n-fold generator derivative of a value table (rows = domain)."""
    mods = np.array(cod_orders, dtype=np.int64)
    level = {(): table}
    for _ in range(n):
        nxt = {}
        for key, t in level.items():
            start = key[-1] if key else 0
            for j in range(start, len(shifts)):
                nxt[key + (j,)] = (t[..., shifts[j], :] - t) % mods
        level = nxt
    return list(level.values())


def has_degree_at_most(table: np.ndarray, dom_orders, cod_orders, d: int, shifts=None) -> bool:
    """All (d+1)-fold generator derivatives vanish (they commute, so multisets suffice)."""
    shifts = shift_indices(dom_orders) if shifts is None else shifts
    return all(not t.any() for t in derivatives(table, shifts, cod_orders, d + 1))


# ---------------------------------------------------------------------------
# functions on groups and their norms


def function_values(spec: dict, orders, seed) -> np.ndarray:
    """The complex table of a config function source, built from its definition."""
    kind = spec["kind"]
    n = math.prod(orders)
    if kind == "ones":
        return np.ones(n, dtype=np.complex128)
    if kind == "character":
        E = elements(orders)
        theta = sum(t * E[:, j] / m for j, (t, m) in enumerate(zip(spec["t"], orders)))
        return np.exp(2j * np.pi * theta)
    if kind == "bilinear":
        l = spec["l"]
        E = elements(orders)
        return np.exp(1j * np.pi * (E[:, :l] * E[:, l:]).sum(axis=1))
    if kind == "phases":
        return np.exp(2j * np.pi * np.array([a / b for a, b in spec["phases"]]))
    if kind == "values":
        return np.array([complex(a, b) for a, b in spec["values"]])
    rng = random.Random(seed)
    if kind == "random_unimodular":
        return np.exp(2j * np.pi * np.array([rng.randrange(360) / 360 for _ in range(n)]))
    if kind == "random_bounded":
        vals = []
        for _ in range(n):
            r = rng.random()
            theta = rng.random()
            vals.append(r * np.exp(2j * np.pi * theta))
        return np.array(vals)
    raise ValueError(f"unknown function kind {kind!r}")


def gowers_power(values: np.ndarray, orders, order: int) -> float:
    """||f||_{U^order}^(2^order), with an FFT base at order 2.

    ||g||_{U^2}^4 = sum |g_hat|^4 and ||f||_{U^{k+1}}^{2^{k+1}} = E_h ||D_h f||_{U^k}^{2^k}.
    """
    orders = tuple(orders)
    n = math.prod(orders)
    V = np.asarray(values, dtype=np.complex128).reshape(1, n)
    if order == 1:
        return abs(V.mean()) ** 2
    add = add_table(orders)
    for _ in range(order - 2):
        V = (V[:, add] * np.conj(V)[:, None, :]).reshape(-1, n)
    F = np.fft.fftn(V.reshape((V.shape[0],) + orders), axes=tuple(range(1, len(orders) + 1))) / n
    per = (np.abs(F) ** 4).reshape(V.shape[0], -1).sum(axis=1)
    return float(per.mean())


def box_power_direct(values: np.ndarray, orders, split: int) -> float:
    """||f||_box^4 as the plain four-fold sum over (a1, a2, b1, b2)."""
    na = math.prod(orders[:split])
    nb = math.prod(orders[split:])
    F = np.asarray(values).reshape(na, nb)
    s = np.einsum("ij,kj,il,kl->", F, np.conj(F), np.conj(F), F, optimize=False)
    return float(s.real) / (na * na * nb * nb)


def exact_power(counts, modulus: int, scale: int) -> complex:
    """(sum_a counts[a] e(a/N)) / scale in floating point."""
    re = math.fsum(c * math.cos(2 * math.pi * a / modulus) for a, c in enumerate(counts) if c)
    im = math.fsum(c * math.sin(2 * math.pi * a / modulus) for a, c in enumerate(counts) if c)
    return complex(re, im) / scale


def fiber_average(dom_orders, cod_orders, matrix, phase_table, modulus) -> np.ndarray:
    """phi_*tau(x) = mean of e(phi(y)/N) over the fibre tau(y) = x."""
    E = elements(dom_orders)
    img = index(apply_matrix(matrix, E, cod_orders), cod_orders)
    w = np.exp(2j * np.pi * np.asarray(phase_table, dtype=np.float64) / modulus)
    n = math.prod(cod_orders)
    sums = np.bincount(img, weights=w.real, minlength=n) + 1j * np.bincount(
        img, weights=w.imag, minlength=n
    )
    return sums / np.bincount(img, minlength=n)


# ---------------------------------------------------------------------------
# cubes on filtered group nilspaces


def cubes(factors, dim: int) -> np.ndarray:
    """All dim-cubes of a product of (order, degree) factors, sorted.

    A cube's j-th coordinate is a polynomial of degree <= d_j in the 0/1
    vertex coordinates.  Shape (ncubes, 2^dim, ncoords); vertices of
    {0,1}^dim in lexicographic order; cubes sorted by their tuple of vertex
    values.
    """
    verts = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=np.int64).reshape(-1, dim)
    per_coord = []
    for m, d in factors:
        monos = [
            np.prod(verts[:, list(S)], axis=1) if S else np.ones(len(verts), dtype=np.int64)
            for size in range(min(d, dim) + 1)
            for S in itertools.combinations(range(dim), size)
        ]
        monos = np.array(monos)
        coeffs = elements((m,) * len(monos))
        per_coord.append((coeffs @ monos) % m)
    grids = np.meshgrid(*[np.arange(len(p)) for p in per_coord], indexing="ij")
    picks = [g.reshape(-1) for g in grids]
    Q = np.stack([p[i] for p, i in zip(per_coord, picks)], axis=2)
    flat = Q.reshape(Q.shape[0], -1)
    order = np.lexsort(flat.T[::-1])
    return Q[order]


def vertex_signs(dim: int) -> np.ndarray:
    verts = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=np.int64).reshape(-1, dim)
    return np.where(verts.sum(axis=1) % 2, -1, 1)


def sigma(point_values: np.ndarray, cube_idx: np.ndarray, signs: np.ndarray, z_orders) -> np.ndarray:
    """sigma(g o q) = sum_v (-1)^|v| g(q(v)) for every cube (rows of element indices)."""
    vals = point_values[cube_idx]  # (ncubes, nverts, ncoords_z)
    return (vals * signs[None, :, None]).sum(axis=1) % np.array(z_orders, dtype=np.int64)


# ---------------------------------------------------------------------------
# exact integer linear algebra


def det(mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [list(map(int, r)) for r in mat]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
