"""Checks of every record against computations made apart from the library.

``check(op, result)`` raises ``CheckFailed`` when a record disagrees with the
reference mathematics in ``oracle``.  Reference values that depend only on
the operation (function tables, cube sets, rebuilt cocycles, morphism
counts) are computed once per operation and kept in ``op.meta``.  The only
library call is ``instances.random_cocycle``, which returns the generating
data ``g0, g2`` of a random-family cocycle.
"""

from __future__ import annotations

import math
import random

import numpy as np

import oracle
from oracle import TOL


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, what, tol=TOL):
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r}")


def _memo(op, key, fn):
    cache = op.meta.setdefault("_ref", {})
    if key not in cache:
        cache[key] = fn()
    return cache[key]


def _values(op):
    m = op.meta
    return _memo(op, "values", lambda: oracle.function_values(m["spec"], m["orders"], m["seed"]))


def _params(op):
    return op.config["params"]


# ---------------------------------------------------------------------------
# norms


def _norm(op, rec):
    k = _params(op)["order"]
    orders = op.meta["orders"]
    v = rec["outputs"]["value"]
    vals = _values(op)
    own = _memo(op, "power", lambda: oracle.gowers_power(vals, orders, k))
    _close(v ** (2**k), own, f"U^{k} power against the FFT recursion")
    kind = op.meta["spec"]["kind"]
    if k == 1:
        _close(v, abs(vals.mean()), "U^1 against |E f|")
    if kind == "ones" or (kind == "character" and k >= 2) or (kind == "bilinear" and k == 3):
        _close(v, 1.0, f"U^{k} of a {kind} function")


def _boxnorm(op, rec):
    p = _params(op)
    v = rec["outputs"]["value"]
    own = _memo(op, "box", lambda: oracle.box_power_direct(_values(op), op.meta["orders"], p["split"]))
    _close(v**4, own, "box norm against the direct four-fold sum")
    if op.meta["spec"]["kind"] == "bilinear":
        _close(v, 2 ** (-op.meta["spec"]["l"] / 4), "box norm of the bilinear function")


def _cutnorm(op, rec):
    orders = op.meta["orders"]
    vals = _values(op)
    out = rec["outputs"]
    t = vals.reshape(orders)
    for key, flat in out["witnesses"].items():
        blk = [int(b) for b in key.split(",")]
        w = np.array([complex(a, b) for a, b in flat])
        _require(np.all(np.abs(np.abs(w) - 1) <= TOL), f"witness {key} is not unimodular")
        shape = [1] * len(orders)
        for ax in blk:
            shape[ax] = orders[ax]
        t = t * np.conj(w.reshape(shape))
    _close(abs(t.mean()), out["value"], "cut-norm objective recomputed from the witnesses")
    _require(abs(vals.mean()) <= out["value"] + TOL, "cut-norm value below |E f|")
    _require(out["value"] <= 1 + TOL, "cut-norm value above 1")


def _phase_degree_ok(p, deg):
    table = np.array(p["phase_table"], dtype=np.int64)[:, None]
    return oracle.has_degree_at_most(table, p["domain"], (p["phase_modulus"],), deg)


def _fibre(op):
    p = _params(op)
    return _memo(
        op,
        "fibre",
        lambda: oracle.fiber_average(p["domain"], p["codomain"], p["matrix"], p["phase_table"], p["phase_modulus"]),
    )


def _obstruct(op, rec):
    p = _params(op)
    out, inp = rec["outputs"], rec["inputs"]
    f = _values(op)
    pp = _fibre(op)
    _close(out["correlation"], abs((f * np.conj(pp)).mean()), "correlation against own fibre averages")
    _require(out["correlation"] <= out["norm"] + TOL, "correlation exceeds the norm")
    k = inp["order"]
    own = _memo(op, "power", lambda: oracle.gowers_power(f, p["codomain"], k))
    _close(out["norm"] ** (2**k), own, f"U^{k} power against the FFT recursion")
    _require(_phase_degree_ok(p, inp["degree"]), "phase table exceeds its reported degree")


def _project(op, rec):
    p = _params(op)
    out = rec["outputs"]
    got = np.array([complex(a, b) for a, b in out["values"]])
    _require(np.max(np.abs(got - _fibre(op))) <= TOL, "projected values differ from own fibre averages")
    _require(out["fiber_size"] * math.prod(p["codomain"]) == math.prod(p["domain"]), "fibre size")
    _require(out["torsion"] == [oracle.exponent(p["codomain"]), oracle.exponent(p["domain"])], "torsions")
    _require(_phase_degree_ok(p, rec["inputs"]["degree"]), "phase table exceeds its reported degree")


def _crosssection(op, rec):
    p = _params(op)
    A, B = p["codomain"], p["domain"]
    out = rec["outputs"]
    table = np.array(out["table"], dtype=np.int64).reshape(-1, len(B))
    _require(
        np.array_equal(oracle.apply_matrix(p["matrix"], table, A), oracle.elements(A)),
        "tau(iota(y)) != y",
    )
    d = out["degree"]
    shifts = oracle.shift_indices(A)
    _require(oracle.has_degree_at_most(table, A, B, d, shifts), f"a {d + 1}-fold derivative of iota is nonzero")
    if d >= 1:
        _require(not oracle.has_degree_at_most(table, A, B, d - 1, shifts), "iota has a lower degree than reported")


# ---------------------------------------------------------------------------
# group algebra


def _complement(op, rec):
    p = _params(op)
    G = tuple(p["group"])
    H = _memo(op, "H", lambda: oracle.closure(G, p["generators"]))
    out = rec["outputs"]
    K = out["complement"]
    if K is not None:
        Kc = oracle.closure(G, K["generators"])
        _require(len(Kc) == K["order"], "reported complement order")
        _require(oracle.splits(G, H, Kc), "reported complement does not split A")
    else:
        pure = _memo(op, "pure", lambda: oracle.is_pure(G, H))
        _require(not pure, "no complement reported, yet H is pure")
    if "complemented_hull" in out:
        hull = out["complemented_hull"]
        Hh = oracle.closure(G, hull["generators"])
        Kh = oracle.closure(G, hull["complement_generators"])
        _require(np.all(np.isin(H, Hh)), "hull does not contain H")
        _require(oracle.splits(G, Hh, Kh), "hull and its complement do not split A")
    elif K is None:
        _require(len(oracle.factorize(math.prod(G))) > 1, "p-group record without a hull")


def _shrink(op, rec):
    p = _params(op)
    G = tuple(p["group"])
    H = _memo(op, "H", lambda: oracle.closure(G, p["generators"]))
    out = rec["outputs"]
    Hp = oracle.closure(G, out["shrunk_generators"])
    K = oracle.closure(G, out["complement_generators"])
    _require(np.all(np.isin(Hp, H)), "H' is not contained in H")
    _require(oracle.splits(G, Hp, K), "H' and K do not split A")
    fac = oracle.factorize(math.prod(G))
    if len(fac) == 1:
        (prime,) = fac
        n = round(math.log(oracle.exponent(G), prime))
        r = math.prod(G) // len(H)
        _require(math.prod(G) // len(Hp) <= r ** (n * n + n), "index of H' exceeds r^(n^2+n)")


def _well_defined(matrix, dom, cod):
    M = np.array(matrix, dtype=np.int64).reshape(len(cod), len(dom))
    return all(not ((m * M[:, j]) % np.array(cod)).any() for j, m in enumerate(dom))


def _decompose(op, rec):
    G = tuple(_params(op)["group"])
    out = rec["outputs"]
    P = []
    total = 1
    for prime in out["primes"]:
        comp = out["components"][str(prime)]
        _require(all(set(oracle.factorize(m)) == {prime} for m in comp), f"component {prime} is not a p-group")
        P += comp
        total *= math.prod(comp)
    _require(total == math.prod(G), "component orders do not multiply to |G|")
    iso, inv = out["iso_matrix"], out["iso_inverse_matrix"]
    _require(_well_defined(iso, G, P) and _well_defined(inv, P, G), "a decomposition map is not well defined")
    EG, EP = oracle.elements(G), oracle.elements(P)
    _require(np.array_equal(oracle.apply_matrix(inv, oracle.apply_matrix(iso, EG, P), G), EG), "inverse o iso != id")
    _require(np.array_equal(oracle.apply_matrix(iso, oracle.apply_matrix(inv, EP, G), P), EP), "iso o inverse != id")


def _snf(op, result):
    M = op.args["matrix"]
    U, S, V = result
    n, c = len(M), len(M[0])
    _require(oracle.matmul(oracle.matmul(U, M), V) == S, "U M V != S")
    _require(abs(oracle.det(U)) == 1 and abs(oracle.det(V)) == 1, "U or V is not unimodular")
    _require(all(S[i][j] == 0 for i in range(n) for j in range(c) if i != j), "S is not diagonal")
    d = [S[i][i] for i in range(min(n, c))]
    _require(all(x >= 0 for x in d), "negative invariant factor")
    _require(all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:])), "d_i does not divide d_(i+1)")
    if n == c:
        _require(math.prod(d) == abs(oracle.det(M)), "product of invariant factors != |det M|")


def _exact(op, result):
    a = op.args
    orders, order = a["orders"], a["order"]
    total = math.prod(orders) ** (order + 1)
    _require(sum(result.counts) == total == result.scale, "phase counts do not sum to |G|^(order+1)")
    if op.meta.get("bilinear") and order == 3:
        _require(result.counts[0] == total, "a bilinear U^3 count sits off phase 0")
    vals = np.exp(2j * np.pi * np.array([x / y for x, y in a["phases"]]))
    own = _memo(op, "power", lambda: oracle.gowers_power(vals, orders, order))
    exact = oracle.exact_power(result.counts, result.modulus, result.scale)
    _close(exact.imag, 0.0, "imaginary part of the exact power")
    _close(exact.real, own, "exact power against the float value")


# ---------------------------------------------------------------------------
# cocycles and morphisms


def _split_reference(op):
    """rho on own sorted cube enumeration, with own full (E) and rooted (E') coprime averages."""
    from gowerslab.groups import FinAbGroup
    from gowerslab.instances import random_cocycle
    from gowerslab.nilcube import FilteredGroupNilspace

    p = _params(op)
    y1, y2 = [tuple(f) for f in p["y1"]], [tuple(f) for f in p["y2"]]
    z = tuple(p["z"])
    dim = p["k"] + 1
    factors = y1 + y2
    xo = tuple(m for m, _ in factors)
    s = len(y1)
    Q = oracle.cubes(factors, dim)
    nc, nv = Q.shape[0], Q.shape[1]
    qi = oracle.index(Q.reshape(-1, len(xo)), xo).reshape(nc, nv)
    signs = oracle.vertex_signs(dim)
    zmod = np.array(z, dtype=np.int64)
    coc = p["cocycle"]
    if coc["kind"] == "table":
        rho = np.array(coc["values"], dtype=np.int64).reshape(nc, len(z))
    else:
        _, g0, g2 = random_cocycle(
            random.Random(op.config["seed"]),
            FilteredGroupNilspace(y1),
            FilteredGroupNilspace(y2),
            FinAbGroup(z),
            dim,
        )
        EX = oracle.elements(xo)
        g0a = np.array([g0[tuple(int(c) for c in x)].coords for x in EX], dtype=np.int64)
        g2a = np.array([g2[tuple(int(c) for c in x[s:])].coords for x in EX], dtype=np.int64)
        rho = (oracle.sigma(g0a, qi, signs, z) + oracle.sigma(g2a, qi, signs, z)) % zmod
    _, q2id = np.unique(Q[:, :, s:].reshape(nc, -1), axis=0, return_inverse=True)
    q2id = q2id.reshape(-1)
    root1 = oracle.index(Q[:, 0, :s], xo[:s])
    n1 = nc // (q2id.max() + 1)
    per_root = n1 // math.prod(xo[:s])

    def average(keys, count):
        sums = np.zeros((keys.max() + 1, len(z)), dtype=np.int64)
        np.add.at(sums, keys, rho)
        inv = np.array([pow(int(count), -1, m) if m > 1 else 0 for m in z], dtype=np.int64)
        return (sums[keys] % zmod) * inv % zmod

    E = average(q2id, n1)
    Ep = average(root1 * (q2id.max() + 1) + q2id, per_root)
    return {"qi": qi, "signs": signs, "rho": rho, "q2id": q2id, "root": qi[:, 0], "E": E, "Ep": Ep, "zmod": zmod}


def _constant_on(keys, values):
    first = np.zeros((keys.max() + 1, values.shape[1]), dtype=np.int64)
    first[keys] = values
    return np.array_equal(first[keys], values)


def _splits(op, rec):
    ref = _memo(op, "split", lambda: _split_reference(op))
    out = rec["outputs"]
    zmod = ref["zmod"]
    nz = len(zmod)
    _require(out["cube_count"] == len(ref["rho"]), "cube count")
    if op.command == "avg-split":
        E = np.array(out["e_values"], dtype=np.int64).reshape(-1, nz)
        Ep = np.array(out["eprime_values"], dtype=np.int64).reshape(-1, nz)
        _require(np.array_equal(E, ref["E"]), "E differs from own coprime average")
        _require(np.array_equal(Ep, ref["Ep"]), "E' differs from own rooted coprime average")
        _require(_constant_on(ref["q2id"], E), "E does not factor through the second projection")
        _require(_constant_on(ref["root"], (Ep - E) % zmod), "E' - E depends on more than the root")
    else:
        kappa = np.array(out["kappa_values"], dtype=np.int64).reshape(-1, nz)
        g = np.array(out["g"], dtype=np.int64).reshape(-1, nz)
        _require(np.array_equal(kappa, ref["E"]), "kappa differs from own coprime average")
        _require(_constant_on(ref["q2id"], kappa), "kappa does not factor through the second projection")
        resid = (ref["rho"] - kappa - oracle.sigma(g, ref["qi"], ref["signs"], tuple(zmod))) % zmod
        _require(not resid.any(), "rho != kappa + sigma(g o q)")
        _require(out["residual_all_zero"] and out["residual_max"] == 0, "reported residual")


def _morphism_count(xo, y):
    """How many of all |Y|^|X| maps are polynomial of the target degrees."""
    yo = tuple(m for m, _ in y)
    maps = oracle.elements((math.prod(yo),) * math.prod(xo))  # rows of Y element indices
    return int(_polynomial_mask(oracle.elements(yo)[maps], xo, y).sum())


def _polynomial_mask(T, xo, y):
    """Which tables (shape (ntables, |X|, ncoords)) have coordinate j of degree <= d_j."""
    shifts = oracle.shift_indices(xo)
    ok = np.ones(T.shape[0], dtype=bool)
    for j, (m, d) in enumerate(y):
        for t in oracle.derivatives(T[:, :, j : j + 1], shifts, (m,), d + 1):
            ok &= ~t.reshape(T.shape[0], -1).any(axis=1)
    return ok


def _morphisms(op, rec):
    p = _params(op)
    _require(all(d == 1 for _, d in p["x"]), "morphism checks need X = D1(G)")
    xo = tuple(m for m, _ in p["x"])
    out = rec["outputs"]
    count = _memo(op, "morphisms", lambda: _morphism_count(xo, p["y"]))
    T = np.array(out["tables"], dtype=np.int64).reshape(len(out["tables"]), math.prod(xo), len(p["y"]))
    _require(out["count"] == len(T) == count, f"{len(T)} morphisms reported, {count} polynomial maps")
    _require(bool(_polynomial_mask(T, xo, p["y"]).all()), "a table is not polynomial of the target degree")
    _require(len(np.unique(T.reshape(len(T), -1), axis=0)) == len(T), "repeated tables")


# ---------------------------------------------------------------------------


_CHECKS = {
    "norm": _norm,
    "boxnorm": _boxnorm,
    "cutnorm": _cutnorm,
    "obstruct": _obstruct,
    "project": _project,
    "crosssection": _crosssection,
    "complement": _complement,
    "shrink": _shrink,
    "decompose": _decompose,
    "avg-split": _splits,
    "cocycle-split": _splits,
    "morphisms": _morphisms,
    "smith_normal_form": _snf,
    "gowers_norm_exact": _exact,
}


def check(op, result) -> None:
    """Raise CheckFailed unless the record (or direct result) of ``op`` is right."""
    _CHECKS[op.command](op, result)


def check_round(ops, records) -> set:
    """Indices of norm operations that break U^k <= U^(k+1) on one function."""
    by_fn: dict = {}
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec is not None and op.command == "norm" and op.meta.get("fn_key"):
            by_fn.setdefault(op.meta["fn_key"], []).append((_params(op)["order"], rec["outputs"]["value"], i))
    bad = set()
    for runs in by_fn.values():
        runs.sort()
        for (_, a, i), (_, b, j) in zip(runs, runs[1:]):
            if a > b + TOL:
                bad |= {i, j}
    return bad
