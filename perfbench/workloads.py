"""Operation mixes of the four workloads, generated from a workload seed.

Every workload is a fixed list of operation shapes; the seed only draws the
values inside them (functions, surjections, subgroup generators, cocycle
tables, matrices), so that the cost of a round barely depends on the seed.
Each mix is built in latency bands: the median falls inside a large band of
similar light operations and the 90th percentile inside a band of similar
medium ones, away from the steps between bands.

Nothing here calls the library: inputs are plain configs and data, and the
reference values the checks need come from ``oracle``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

SCHEMA = "gowerslab/config-1"
WORKLOADS = ("norms", "cocycles", "algebra", "small-configs")
DEFAULT_LIMIT_S = 60.0
SNF_LIMIT_S = 0.5


@dataclass
class Op:
    """One operation: a CLI command on a config, or one direct library call."""

    label: str
    command: str
    config: dict | None = None
    args: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    limit_s: float = DEFAULT_LIMIT_S
    expect_fail: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    warmups: list


def _cfg(command, params, *, seed=None, cap=None):
    out = {"schema": SCHEMA, "command": command, "params": params}
    if seed is not None:
        out["seed"] = seed
    if cap is not None:
        out["cap"] = cap
    return out


def _function_spec(rng, orders, kind):
    """A function source; exact-phase kinds also carry their phase integers."""
    n = math.prod(orders)
    if kind == "character":
        return {"kind": "character", "t": [rng.randrange(m) for m in orders]}
    if kind == "quadratic_phase":
        N = oracle.exponent(orders)
        table = _phase_polynomial(rng, orders, 2, N)
        return {"kind": "phases", "phases": [[int(a), N] for a in table]}
    if kind == "random_phase":
        N = rng.choice((6, 12, 360))
        return {"kind": "phases", "phases": [[rng.randrange(N), N] for _ in range(n)]}
    if kind == "values":
        vals = []
        for _ in range(n):
            r, t = rng.random(), rng.random()
            vals.append([r * math.cos(2 * math.pi * t), r * math.sin(2 * math.pi * t)])
        return {"kind": "values", "values": vals}
    return {"kind": kind}


def _function_op(label, command, params, spec, orders, *, seed=None, cap=None, fn_key=None):
    """An op whose config holds a function source; meta keeps what the checks rebuild it from."""
    return Op(
        label,
        command,
        _cfg(command, dict(params, function=spec), seed=seed, cap=cap),
        meta={"fn_key": fn_key, "spec": spec, "orders": tuple(orders), "seed": seed},
    )


def _norm_op(rng, label, orders, order, kind, *, fn_key=None, cap=None, spec=None, seed=None):
    spec = spec or (
        {"kind": "bilinear", "l": len(orders) // 2} if kind == "bilinear" else _function_spec(rng, orders, kind)
    )
    seed = rng.randrange(2**31) if seed is None else seed
    params = {"group": list(orders), "order": order}
    return _function_op(label, "norm", params, spec, orders, seed=seed, cap=cap, fn_key=fn_key)


def _cutnorm_op(rng, G, d, **extra):
    spec = {"kind": rng.choice(("random_bounded", "random_unimodular"))}
    params = dict({"group": list(G), "d": d}, **extra)
    return _function_op(f"cutnorm/d{d}/{math.prod(G)}", "cutnorm", params, spec, G, seed=rng.randrange(2**31))


def _obstruct_op(rng, k, **surj):
    p = _phase_params(rng, k, **surj)
    A = p["codomain"]
    return _function_op("obstruct", "obstruct", p, _function_spec(rng, A, "values"), A)


def _boxnorm_op(label, G, split, spec):
    return _function_op(label, "boxnorm", {"group": list(G), "split": split}, spec, G)


def _phase_polynomial(rng, orders, k, N):
    """Residues mod N of c0 + sum c * prod_{j in S} x_j * (N / gcd_S), |S| <= k."""
    E = oracle.elements(orders)
    table = np.full(E.shape[0], rng.randrange(N), dtype=np.int64)
    live = [j for j, m in enumerate(orders) if m > 1]
    for _ in range(3):
        S = rng.sample(live, rng.randint(1, max(1, min(k, len(live)))))
        g = 0
        for j in S:
            g = math.gcd(g, orders[j])
        c = rng.randrange(g)
        mono = np.prod(E[:, S], axis=1)
        table = (table + c * mono * (N // g)) % N
    return [int(v) for v in table]


def _automorphism(rng, orders, steps=6):
    """Product of unit scalings and well-defined shears, as an integer matrix."""
    n = len(orders)
    M = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        E = np.eye(n, dtype=np.int64)
        i = rng.randrange(n)
        if n >= 2 and rng.random() < 0.6:
            j = rng.choice([t for t in range(n) if t != i])
            step = orders[i] // math.gcd(orders[i], orders[j])
            E[i, j] = step * rng.randrange(max(orders[i] // step, 1))
        else:
            E[i, i] = rng.choice([u for u in range(1, orders[i]) if math.gcd(u, orders[i]) == 1] or [1])
        M = (E @ M) % np.array(orders, dtype=np.int64)[:, None]
    return M


def _surjection(rng, *, primes=(2, 3), max_exp=3, max_a=2, extra=1, max_b=243):
    """(domain, codomain, matrix) of a surjection built as auto o projection o auto."""
    while True:
        a, b = [], []
        for _ in range(rng.randint(1, max_a)):
            p = rng.choice(primes)
            ea = rng.randint(1, max_exp - 1)
            a.append(p**ea)
            b.append(p ** rng.randint(ea, max_exp))
        for _ in range(rng.randint(0, extra)):
            b.append(rng.choice(primes) ** rng.randint(1, max_exp))
        if math.prod(b) > max_b:
            continue
        P = np.zeros((len(a), len(b)), dtype=np.int64)
        P[np.arange(len(a)), np.arange(len(a))] = 1
        M = (_automorphism(rng, a) @ P @ _automorphism(rng, b)) % np.array(a)[:, None]
        img = oracle.index(oracle.apply_matrix(M, oracle.elements(b), a), a)
        if len(np.unique(img)) == math.prod(a):
            return b, a, [[int(v) for v in row] for row in M]


def _phase_params(rng, k, **surj):
    B, A, M = _surjection(rng, **surj)
    N = oracle.exponent(B)
    return {
        "domain": B,
        "codomain": A,
        "matrix": M,
        "phase_table": _phase_polynomial(rng, B, k, N),
        "phase_modulus": N,
    }


# ---------------------------------------------------------------------------
# norms


def _norms(rng, smoke):
    ops = []

    def rep(n):
        return 1 if smoke else n

    # light band: U^1..U^3 on |G| <= 64, U^4 on |G| <= 16, box norms, U^2 exact
    light = [
        ((2, 2, 2), "random_unimodular", (1, 2, 3, 4)),
        ((4, 4), "random_bounded", (1, 2, 3, 4)),
        ((2, 2, 2, 2), "bilinear", (1, 2, 3, 4)),
        ((3, 3, 3), "character", (1, 2, 3)),
        ((2, 4, 4), "quadratic_phase", (1, 2, 3)),
        ((4, 4, 4), "random_unimodular", (2, 3)),
        ((2,) * 6, "bilinear", (2, 3)),
        ((8, 8), "ones", (1, 3)),
        ((2, 4, 8), "values", (1, 2, 3)),
    ]
    for r in range(rep(3)):
        for orders, kind, norm_orders in light:
            key = f"{kind}-{'x'.join(map(str, orders))}-{r}"
            spec = None
            if kind not in ("bilinear",):
                spec = _function_spec(rng, orders, kind)
            seed = rng.randrange(2**31)
            for k in norm_orders:
                ops.append(_norm_op(rng, f"norm/u{k}/{math.prod(orders)}", orders, k, kind, fn_key=key, spec=spec, seed=seed))
    for r in range(rep(4)):
        for l in (2, 3):
            G = (2,) * (2 * l)
            ops.append(_boxnorm_op(f"boxnorm/bilinear/{2 ** (2 * l)}", G, l, {"kind": "bilinear", "l": l}))
        for G, split in (((4, 4, 4, 4), 2), ((3, 9, 3), 1)):
            ops.append(_boxnorm_op(f"boxnorm/values/{math.prod(G)}", G, split, _function_spec(rng, G, "values")))
        for G in ((2, 2, 2, 2), (3, 3, 3)):
            spec = _function_spec(rng, G, "random_phase")
            ops.append(_exact_op(f"exact/u2/{math.prod(G)}", G, spec, 2))
        spec = _function_spec(rng, (2, 2, 2), "random_phase")
        ops.append(_exact_op("exact/u3/8", (2, 2, 2), spec, 3))
    for r in range(rep(6)):
        ops.append(_obstruct_op(rng, rng.randint(1, 2), max_b=81))
    # medium band, below the 90th percentile: cut norms, U^3 exact on |G| = 16, U^2 exact on 64
    for r in range(rep(3)):
        for G, d in (((4, 4, 4), 1), ((4, 4, 4), 2), ((2, 2, 2, 2), 2)):
            ops.append(_cutnorm_op(rng, G, d))
        ops.append(_exact_op("exact/u3/16", (4, 4), _function_spec(rng, (4, 4), "quadratic_phase"), 3))
    for r in range(rep(4)):
        ops.append(_exact_op("exact/u2/64", (2, 4, 8), _function_spec(rng, (2, 4, 8), "random_phase"), 2))
    # the band that holds the 90th percentile: U^4 on |G| = 32
    for r in range(rep(6)):
        for G, kind in (((2, 4, 4), "random_bounded"), ((2,) * 5, "random_unimodular")):
            ops.append(_norm_op(rng, "norm/u4/32", G, 4, kind))
    # above it: larger cut norms, U^3 exact on |G| = 27 and 64, U^4 on 64, and
    # U^3 on |G| = 256, whose cost needs a cap above the default 2^30
    for r in range(rep(2)):
        ops.append(_cutnorm_op(rng, (3, 3, 3, 3), 1))
        ops.append(_cutnorm_op(rng, (2, 3, 4, 2), 2))
        ops.append(_exact_op("exact/u3/27", (3, 9), _function_spec(rng, (3, 9), "quadratic_phase"), 3))
    if not smoke:
        cap = 2**33
        ops += [
            _norm_op(rng, "norm/u3/256", (2,) * 8, 3, "bilinear", cap=cap),
            _norm_op(rng, "norm/u3/256", (4, 4, 4, 4), 3, "random_unimodular", cap=cap),
            _norm_op(rng, "norm/u4/64", (2,) * 6, 4, "bilinear"),
            _exact_op("exact/u3/64", (2,) * 6, {"kind": "bilinear", "l": 3}, 3),
        ]
    warm = [
        _norm_op(rng, "warm/norm", (2, 2), 2, "random_unimodular"),
        _boxnorm_op("warm/boxnorm", (2, 2), 1, {"kind": "ones"}),
        _cutnorm_op(rng, (2, 2, 2), 1),
        _obstruct_op(rng, 1, max_b=27),
        _exact_op("warm/exact", (2, 2), {"kind": "phases", "phases": [[0, 2], [1, 2], [1, 2], [0, 2]]}, 2),
    ]
    return ops, warm


def _exact_op(label, orders, spec, order):
    if spec["kind"] == "bilinear":
        l = spec["l"]
        E = oracle.elements(orders)
        phases = [[int(v), 2] for v in (E[:, :l] * E[:, l:]).sum(axis=1) % 2]
    else:
        phases = spec["phases"]
    return Op(
        label,
        "gowers_norm_exact",
        args={"orders": tuple(orders), "phases": phases, "order": order},
        meta={"bilinear": spec["kind"] == "bilinear"},
    )


# ---------------------------------------------------------------------------
# cocycles


def _split_params(y1, y2, z, k, cocycle):
    return {"y1": [list(f) for f in y1], "y2": [list(f) for f in y2], "z": list(z), "k": k, "cocycle": cocycle}


def _table_cocycle(rng, y1, y2, z, k):
    """Values of sigma(g o q) + sigma(h o pi_2 o q) in sorted carrier order."""
    factors = tuple(y1) + tuple(y2)
    xo = tuple(m for m, _ in factors)
    dim = k + 1
    Q = oracle.cubes(factors, dim)
    qi = oracle.index(Q.reshape(-1, len(xo)), xo).reshape(Q.shape[0], -1)
    n = math.prod(xo)
    g = np.array([[rng.randrange(m) for m in z] for _ in range(n)], dtype=np.int64)
    s = len(y1)
    y2o = xo[s:]
    h = np.array([[rng.randrange(m) for m in z] for _ in range(math.prod(y2o))], dtype=np.int64)
    pull = h[oracle.index(oracle.elements(xo)[:, s:], y2o)]
    signs = oracle.vertex_signs(dim)
    vals = (oracle.sigma(g, qi, signs, z) + oracle.sigma(pull, qi, signs, z)) % np.array(z)
    return {"kind": "table", "values": [[int(v) for v in row] for row in vals]}


def _split_op(rng, command, y1, y2, z, k, kind):
    seed = rng.randrange(2**31)
    coc = {"kind": "random"} if kind == "random" else _table_cocycle(rng, y1, y2, z, k)
    n = math.prod(m for m, _ in tuple(y1) + tuple(y2))
    label = f"{command}/k{k}/{n}->{z[0]}/{kind}"
    return Op(label, command, _cfg(command, _split_params(y1, y2, z, k, coc), seed=seed))


def _morphism_op(x, y):
    label = "morphisms/" + "x".join(f"D{d}Z{m}" for m, d in x) + "->" + "x".join(f"D{d}Z{m}" for m, d in y)
    return Op(label, "morphisms", _cfg("morphisms", {"x": [list(f) for f in x], "y": [list(f) for f in y]}))


_Y23 = (((2, 1),), ((3, 1),), (3,))
_Y25 = (((2, 1),), ((5, 1),), (5,))
_SMALL_MORPHISMS = [(((2, 1),), ((2, 1),)), (((2, 1),), ((3, 1),))]


def _cocycles(rng, smoke):
    ops = []
    # light band: small morphism enumerations in graded sizes, ~5 to ~25 ms,
    # so that the median moves smoothly with the speed of the machine instead
    # of jumping between two levels of one repeated operation
    for x, y, count in (
        (((2, 1),), ((2, 1),), 8),
        (((2, 1),), ((3, 1),), 8),
        (((2, 1),), ((2, 2),), 8),
        (((2, 1),), ((4, 1),), 8),
        (((3, 1),), ((2, 1),), 8),
        (((2, 1),), ((2, 1), (2, 1)), 8),
        (((2, 1),), ((5, 1),), 8),
        (((2, 1),), ((3, 2),), 8),
        (((2, 1),), ((6, 1),), 8),
        (((3, 1),), ((3, 1),), 6),
        (((2, 1), (2, 1)), ((2, 1),), 3),
        (((4, 1),), ((2, 1),), 3),
    ):
        for _ in range(1 if smoke else count):
            ops.append(_morphism_op(x, y))
    # k = 1 splits: 216 cubes into Z3 and 1,000 cubes into Z5; cocycle-split
    # into Z3 is the band that holds the 90th percentile
    for command, y, count in (
        ("avg-split", _Y23, 6),
        ("cocycle-split", _Y23, 10),
        ("avg-split", _Y25, 1),
        ("cocycle-split", _Y25, 1),
    ):
        for i in range(1 if smoke else count):
            ops.append(_split_op(rng, command, *y, 1, ("random", "table")[i % 2]))
    if not smoke:
        # heavy: k = 2 splits (1,296 and 2,000 cubes) and a 7,776-cube carrier (k = 3)
        ops.append(_split_op(rng, "avg-split", *_Y23, 2, "table"))
        ops.append(_split_op(rng, "cocycle-split", *_Y23, 2, "random"))
        ops.append(_split_op(rng, "avg-split", *_Y25, 2, "random"))
        ops.append(_split_op(rng, "avg-split", *_Y23, 3, "table"))
    warm = [
        _split_op(rng, "avg-split", ((2, 1),), ((2, 1),), (3,), 0, "random"),
        _split_op(rng, "cocycle-split", ((2, 1),), ((2, 1),), (3,), 0, "table"),
        _morphism_op(((2, 1),), ((2, 1),)),
    ]
    return ops, warm


# ---------------------------------------------------------------------------
# algebra


def _unit(rng, m):
    return rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1] or [1])


def _complement_op(label, G, gens):
    return Op(label, "complement", _cfg("complement", {"group": list(G), "generators": [list(g) for g in gens]}))


def _random_gens(rng, G, r):
    return [[rng.randrange(m) for m in G] for _ in range(r)]


def _snf_op(label, M, expect_fail=False):
    return Op(label, "smith_normal_form", args={"matrix": M}, limit_s=SNF_LIMIT_S, expect_fail=expect_fail)


def _dense(rng, n):
    return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]


# Dense 6x6 cases on which smith_normal_form never returns: its entries grow
# without bound.  They are fixed, not seeded, so every run fails them alike.
SNF_FAULT_SEEDS = (6000, 6001)


def _algebra(rng, smoke):
    ops = []
    if not smoke:
        # heavy: searches without a complement on rank-2 p-groups of order 81,
        # and the dense Smith normal form cases that never return
        ops.append(_complement_op("complement/none/3x27", (3, 27), [[1, (3 * _unit(rng, 9)) % 27]]))
        ops.append(_complement_op("complement/none/9x9", (9, 9), [[3 * _unit(rng, 3), 0]]))
        for s in SNF_FAULT_SEEDS:
            ops.append(_snf_op("snf/6x6/fault", _dense(random.Random(s), 6), expect_fail=True))
    # the band that holds the 90th percentile: searches of order 32 and 27 without a complement
    for _ in range(1 if smoke else 7):
        ops.append(_complement_op("complement/none/4x8", (4, 8), [[2, 4 * rng.randrange(2)]]))
        ops.append(_complement_op("complement/none/3x9", (3, 9), [[0, 3 * _unit(rng, 3)]]))
    # medium band: a search that finds a complement, shrinks on 2-4 coordinates
    for _ in range(1 if smoke else 2):
        ops.append(_complement_op("complement/2x8", (2, 8), [[1, 0]]))
        for G in ((3, 27), (4, 8, 2), (2, 4, 8), (9, 3, 3), (6, 12, 4), (6, 10, 15), (2, 6, 12, 3)):
            ops.append(Op(f"shrink/{'x'.join(map(str, G))}", "shrink", _cfg("shrink", {"group": list(G), "generators": _random_gens(rng, G, 2)})))
    # light band
    for _ in range(1 if smoke else 3):
        for G in ((6, 12, 10), (30, 4), (2, 3, 5, 7), (12, 18), (8, 9, 10)):
            ops.append(Op(f"decompose/{'x'.join(map(str, G))}", "decompose", _cfg("decompose", {"group": list(G)})))
        for _ in range(5):
            p = _surjection(rng, max_b=81)
            ops.append(Op("crosssection", "crosssection", _cfg("crosssection", {"domain": p[0], "codomain": p[1], "matrix": p[2]})))
            ops.append(Op("project", "project", _cfg("project", _phase_params(rng, rng.randint(1, 2), max_b=81))))
    for _ in range(1 if smoke else 2):
        for G in ((27,), (16,), (25,), (12,), (30,)):
            ops.append(_complement_op(f"complement/cyclic/{G[0]}", G, _random_gens(rng, G, 1)))
        for n in (3, 3, 4, 4, 4, 4):
            ops.append(_snf_op(f"snf/{n}x{n}", _dense(rng, n)))
    warm = [
        _complement_op("warm/complement", (2, 4), [[1, 0]]),
        Op("warm/shrink", "shrink", _cfg("shrink", {"group": [4, 2], "generators": [[2, 0]]})),
        Op("warm/decompose", "decompose", _cfg("decompose", {"group": [6]})),
        Op("warm/crosssection", "crosssection", _cfg("crosssection", {"domain": [9], "codomain": [3], "matrix": [[1]]})),
        Op("warm/project", "project", _cfg("project", _phase_params(rng, 1, max_b=27))),
        _snf_op("warm/snf", [[2, 4], [6, 8]]),
    ]
    return ops, warm


# ---------------------------------------------------------------------------
# small configs


def _small_group(rng):
    """One of each tiny operation: |G| <= 32, cube dimension <= 2, rank-1 complements."""
    ops = []
    G = rng.choice(((2, 2), (3, 3), (4,), (2, 4), (6,), (2, 2, 2)))
    kind = rng.choice(("random_unimodular", "ones", "character"))
    ops.append(_norm_op(rng, "norm", G, rng.randint(1, 3), kind))
    ops.append(_boxnorm_op("boxnorm", (2, 2, 2, 2), 2, {"kind": "bilinear", "l": 2}))
    ops.append(_cutnorm_op(rng, rng.choice(((2, 2, 2), (2, 3, 2))), 1, restarts=2, iters=5))
    G = rng.choice(((8,), (9,), (27,), (16,), (25,), (32,)))
    ops.append(_complement_op("complement", G, _random_gens(rng, G, 1)))
    G = rng.choice(((4, 2), (9, 3), (8,), (2, 2, 2)))
    ops.append(Op("shrink", "shrink", _cfg("shrink", {"group": list(G), "generators": _random_gens(rng, G, 1)})))
    p = _surjection(rng, max_a=1, extra=1, max_b=27)
    ops.append(Op("crosssection", "crosssection", _cfg("crosssection", {"domain": p[0], "codomain": p[1], "matrix": p[2]})))
    ops.append(Op("project", "project", _cfg("project", _phase_params(rng, 1, max_a=1, max_b=27))))
    ops.append(_obstruct_op(rng, 1, max_a=1, max_b=27))
    y1, y2, z = ((2, 1),), ((2, 1),), (3,)
    ops.append(_split_op(rng, "avg-split", y1, y2, z, 0, rng.choice(("random", "table"))))
    ops.append(_split_op(rng, "cocycle-split", y1, y2, z, 0, rng.choice(("random", "table"))))
    # the band that holds the 90th percentile: averages on 64 cubes of dimension 2
    ops.append(_split_op(rng, "avg-split", y1, y2, z, 1, "random"))
    ops.append(_split_op(rng, "avg-split", y1, y2, z, 1, "table"))
    ops.append(_split_op(rng, "cocycle-split", y1, y2, z, 1, rng.choice(("random", "table"))))
    ops.append(_morphism_op(*rng.choice(_SMALL_MORPHISMS)))
    ops.append(Op("decompose", "decompose", _cfg("decompose", {"group": list(rng.choice(((6,), (12,), (2, 10), (30,))))})))
    return ops


def _small(rng, smoke):
    ops = []
    for _ in range(1 if smoke else 20):
        ops += _small_group(rng)
    return ops, _small_group(random.Random(0))


_BUILDERS = {"norms": _norms, "cocycles": _cocycles, "algebra": _algebra, "small-configs": _small}


def build(name: str, seed: int, *, smoke: bool = False) -> Workload:
    """The workload's round of operations (in a seeded order) and its warm-ups."""
    rng = random.Random(f"{name}/{seed}")
    ops, warm = _BUILDERS[name](rng, smoke)
    rng.shuffle(ops)
    return Workload(name, ops, warm)
