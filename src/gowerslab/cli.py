"""Command-line harness: config-driven, deterministic, golden-file checked.

Experiments are JSON configs; each run writes a JSON result record (and
optionally CSV rows for the norm family) that embeds the certificate data
needed to re-verify its postcondition offline: complement pairs,
cross-section tables, split residuals, cut-norm witnesses.

Exit codes: 0 success, 2 config/validation error, 3 cost-cap abort,
4 postcondition or hypothesis failure (e.g. a non-coprime split request),
1 golden-suite mismatch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from itertools import chain, count
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import __version__
from .errors import CapExceeded, ConfigError, CoprimalityError, PostconditionError, cap_power
from .groups import (
    FinAbGroup,
    Homomorphism,
    Subgroup,
    complemented_enlarge,
    complemented_hull,
    find_complement,
    mtorsion_complemented_shrink,
    primary_decompose,
)
from .harmonics import (
    GroupFunction,
    ProjectedPhase,
    box_norm_4cycle,
    correlation,
    cut_norm_lower,
    cut_norm_work,
    gowers_norm,
    obstruction_check,
    phase,
    project_phase,
)
from .instances import (
    bilinear_function,
    random_bounded_function,
    random_cocycle,
    random_unimodular_function,
)
from .nilcube import (
    Cocycle,
    FilteredGroupNilspace,
    _check_z_order,
    factor_average,
    coboundary,
    cube_set,
    enumerate_morphisms,
    is_cocycle,
    rooted_factor_average,
    split_cocycle,
)
from .polymaps import PolyMap, polynomial_cross_section

CONFIG_SCHEMA = "gowerslab/config-1"
RESULT_SCHEMA = "gowerslab/result-1"
GOLDEN_SCHEMA = "gowerslab/goldens-1"

DEFAULT_CAP = 2**30
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# config plumbing


def _need(params: dict, key: str, kind=None):
    if key not in params:
        raise ConfigError(f"missing required field 'params.{key}'")
    v = params[key]
    if kind is not None and not (type(v) is int if kind is int else isinstance(v, kind)):
        raise ConfigError(f"field 'params.{key}' has the wrong type")
    return v


def _ints(v, length: int | None = None) -> bool:
    """Whether v is a list (of the given length) of integers; bool is not an integer here."""
    return (
        isinstance(v, list)
        and (length is None or len(v) == length)
        and all(type(c) is int for c in v)
    )


def _group(spec) -> FinAbGroup:
    if not _ints(spec) or not all(m >= 1 for m in spec):
        raise ConfigError(f"group literal must be a list of orders, got {spec!r}")
    return FinAbGroup(tuple(spec))


def _nilspace(spec) -> FilteredGroupNilspace:
    if not all(_ints(f, 2) for f in spec):
        raise ConfigError("nilspace literal must be a list of [order, degree] integer pairs")
    return FilteredGroupNilspace(tuple(tuple(f) for f in spec))


def _function(spec, G: FinAbGroup, rng_seed) -> GroupFunction:
    import random

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("function spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "ones":
        return GroupFunction.ones(G)
    if kind == "values":
        vals = spec.get("values")
        if not (
            isinstance(vals, list)
            and len(vals) == G.order
            and all(
                isinstance(v, list)
                and len(v) == 2
                and all(type(c) in (int, float) and math.isfinite(c) for c in v)
                for v in vals
            )
        ):
            raise ConfigError("'values' must list one [re, im] pair of finite numbers per element")
        return GroupFunction(G, [complex(re, im) for re, im in vals])
    if kind == "phases":
        ph = spec.get("phases")
        if not (
            isinstance(ph, list)
            and len(ph) == G.order
            and all(_ints(p, 2) and p[1] != 0 for p in ph)
        ):
            raise ConfigError(
                "'phases' must list one [num, den] pair of integers, den != 0, per element"
            )
        return GroupFunction._from_ratios(G, ph)
    if kind == "character":
        t = spec.get("t", [0] * G.ncoords)
        if not _ints(t, G.ncoords):
            raise ConfigError("'t' must list one integer per group coordinate")
        return GroupFunction.character(G, t)
    if kind == "bilinear":
        l = spec.get("l")
        if type(l) is not int or l < 1:
            raise ConfigError("'bilinear' needs a positive integer 'l'")
        f = bilinear_function(l)
        if f.group != G:
            raise ConfigError("bilinear function lives on Z_2^(2l); group mismatch")
        return f
    if kind in ("random_unimodular", "random_bounded"):
        if rng_seed is None:
            raise ConfigError("a seed is mandatory for randomized function sources")
        rng = random.Random(rng_seed)
        if kind == "random_unimodular":
            return random_unimodular_function(rng, G)
        return random_bounded_function(rng, G)
    raise ConfigError(f"unknown function kind {kind!r}")


def _subgroup(G: FinAbGroup, gens_spec) -> Subgroup:
    if not isinstance(gens_spec, list) or not all(_ints(g, G.ncoords) for g in gens_spec):
        raise ConfigError("subgroup generators must be a list of integer coordinate lists")
    try:
        return Subgroup.from_generators(G, [tuple(g) for g in gens_spec])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad subgroup generators: {e}")


def _hom(domain: FinAbGroup, codomain: FinAbGroup, matrix) -> Homomorphism:
    if not all(_ints(r) for r in matrix):
        raise ConfigError("a homomorphism matrix must be a list of integer rows")
    try:
        return Homomorphism(domain, codomain, matrix)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad homomorphism matrix: {e}")


def _zrows(rows, count: int, Z: FinAbGroup, what: str) -> np.ndarray:
    """``count`` values of Z, each a list of ncoords(Z) integers, reduced mod Z."""
    ok = isinstance(rows, list) and len(rows) == count and set(map(type, rows)) <= {list}
    ok = ok and set(map(len, rows)) <= {Z.ncoords}
    flat = list(chain.from_iterable(rows)) if ok else []
    if not (ok and set(map(type, flat)) <= {int}):  # bool is not an integer here
        raise ConfigError(
            f"{what} ({count} expected), each a list of {Z.ncoords} integers"
        )
    return Z.residues(rows)


def _capped(cost: int, cap: int, what: str) -> None:
    """Refuse a run whose cost exceeds the cap, before anything of that size is built."""
    if cost > cap:
        raise CapExceeded(f"{what} = {cost} exceeds cap {cap}")


def _cocycle_from_config(params: dict, seed, cap) -> tuple[Cocycle, int, dict]:
    import random

    y1 = _nilspace(_need(params, "y1", list))
    y2 = _nilspace(_need(params, "y2", list))
    Z = _group(_need(params, "z", list))
    _check_z_order(Z.orders)
    k = _need(params, "k", int)
    if k < 0:
        raise ConfigError("'k' must be an integer >= 0")
    dim = k + 1
    X = y1.product(y2)
    if X.group.order > 1:  # a factor of order >= 2 and degree >= 1 alone carries 2^(k+2) cubes or more
        cap_power(2, k + 2, cap, "cube set size, at least 2^(k+2)")
    cubes = cube_set(X, dim).size
    _capped(cubes, cap, "cube set size")
    spec = _need(params, "cocycle", dict)
    kind = spec.get("kind")
    meta: dict = {"y1": list(y1.factors), "y2": list(y2.factors), "z": list(Z.orders), "k": k}
    if kind == "random":
        if seed is None:
            raise ConfigError("a seed is mandatory for the random cocycle family")
        rho, _, _ = random_cocycle(random.Random(seed), y1, y2, Z, dim)
    elif kind == "coboundary":
        g = _zrows(spec.get("g"), X.group.order, Z, "'g' must list one value per point of Y1 x Y2")
        rho = coboundary(X, Z, dim, g)
    elif kind == "table":
        what = "'values' must list one value per cube, in sorted carrier order"
        rho = Cocycle(X, Z, dim, _zrows(spec.get("values"), cubes, Z, what))
    else:
        raise ConfigError(f"unknown cocycle kind {kind!r}")
    return rho, y1.group.ncoords, meta


# ---------------------------------------------------------------------------
# command runners: each returns (inputs_summary, outputs, csv_rows)


def _run_norm(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    order = _need(params, "order", int)
    if order < 1:
        raise ConfigError("'order' must be an integer >= 1")
    cap_power(G.order, order, cap, "|G|^order")  # compared before the function's |G| values exist
    f = _function(_need(params, "function", dict), G, seed)
    value = gowers_norm(f, order, cap=cap)
    inputs = {"group": list(G.orders), "order": order, "function_kind": params["function"]["kind"]}
    outputs = {"value": value, "exact_input": f.is_exact()}
    return inputs, outputs, [("gowers", order, value)]


def _run_boxnorm(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    split = _need(params, "split", int)
    _capped(G.order, cap, "|G|")
    f = _function(_need(params, "function", dict), G, seed)
    value = box_norm_4cycle(f, split)
    inputs = {"group": list(G.orders), "split": split, "function_kind": params["function"]["kind"]}
    return inputs, {"value": value}, [("box4", split, value)]


def _run_cutnorm(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    d = _need(params, "d", int)
    restarts = params.get("restarts", 8)
    iters = params.get("iters", 25)
    if type(restarts) is not int or restarts < 0:
        raise ConfigError("'restarts' must be an integer >= 0")
    if type(iters) is not int or iters < 1:
        raise ConfigError("'iters' must be an integer >= 1")
    if seed is None:
        raise ConfigError("a seed is mandatory for cut-norm maximization")
    if seed < 0:  # numpy's generator takes no negative seed
        raise ConfigError("'seed' must be an integer >= 0 for cut-norm maximization")
    _capped(cut_norm_work(G, d, restarts, iters), cap, "predicted cut-norm work")
    f = _function(_need(params, "function", dict), G, seed)
    res = cut_norm_lower(f, d, restarts=restarts, iters=iters, seed=seed, cap=cap)
    witnesses = {
        ",".join(map(str, blk)): np.stack((w.real, w.imag), axis=-1).reshape(-1, 2)
        for blk, w in res.witnesses.items()
    }
    inputs = {"group": list(G.orders), "d": d, "restarts": restarts, "iters": iters}
    outputs = {"value": res.value, "witnesses": witnesses}
    return inputs, outputs, [("cut", d, res.value)]


def _run_complement(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    _capped(2 * G.order, cap, "2|A|")  # find_complement's cost, compared before H's mask exists
    H = _subgroup(G, _need(params, "generators", list))
    K = find_complement(H, cap=cap)
    inputs = {"group": list(G.orders), "generators": H.rows, "subgroup_order": H.order}
    outputs: dict = {}
    if K is None:
        outputs["complement"] = None
        if G.is_pgroup():
            if len(H.rows) == 1:
                Hh, Kh = complemented_hull(H.generators[0])
            else:
                Hh, Kh = complemented_enlarge(H)
            outputs["complemented_hull"] = {
                "generators": Hh.rows,
                "order": Hh.order,
                "complement_generators": Kh.rows,
                "complement_order": Kh.order,
            }
    else:
        outputs["complement"] = {"generators": K.rows, "order": K.order}
    return inputs, outputs, []


def _run_shrink(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    _capped(G.order, cap, "|A|")
    H = _subgroup(G, _need(params, "generators", list))
    Hp, K = mtorsion_complemented_shrink(H)
    inputs = {"group": list(G.orders), "generators": H.rows, "index": H.index}
    outputs = {
        "shrunk_generators": Hp.rows,
        "shrunk_order": Hp.order,
        "shrunk_index": Hp.index,
        "complement_generators": K.rows,
        "complement_order": K.order,
    }
    return inputs, outputs, []


def _run_crosssection(params, seed, cap, tol):
    B = _group(_need(params, "domain", list))
    A = _group(_need(params, "codomain", list))
    _capped(B.order, cap, "|B|")
    tau = _hom(B, A, _need(params, "matrix", list))
    if not tau.is_surjective():
        raise ConfigError("the homomorphism is not surjective")
    iota = polynomial_cross_section(tau)
    inputs = {"domain": list(B.orders), "codomain": list(A.orders), "matrix": [list(r) for r in tau.matrix]}
    outputs = {
        "degree": iota.degree,
        "table": iota.values,
        "torsions": [A.torsion, B.torsion],
    }
    return inputs, outputs, []


def _projected_phase(params, cap) -> ProjectedPhase:
    """phi_*tau of the config's phase table along its surjection matrix."""
    B = _group(_need(params, "domain", list))
    A = _group(_need(params, "codomain", list))
    N = _need(params, "phase_modulus", int)
    if N >= 2**63:
        raise CapExceeded(f"phase modulus {N} does not fit in int64")
    _capped(A.order * N, cap, "|A| N")  # the fiber histogram, compared before Z_N is built
    table = _need(params, "phase_table", list)
    if not _ints(table, B.order):
        raise ConfigError("'phase_table' must list one integer residue per domain element")
    phi = PolyMap(B, FinAbGroup((N,)), tuple((v,) for v in table))
    if phi.degree is None:
        raise ConfigError("the phase table is not polynomial of any degree")
    return project_phase(phi, _hom(B, A, _need(params, "matrix", list)))


def _run_project(params, seed, cap, tol):
    pp = _projected_phase(params, cap)
    phi, A, values = pp.phi, pp.tau.codomain, pp.function.values
    inputs = {
        "domain": list(phi.domain.orders),
        "codomain": list(A.orders),
        "phase_modulus": pp.modulus,
        "degree": pp.degree,
    }
    outputs = {
        "values": np.stack((values.real, values.imag), axis=1),
        "fiber_size": pp.fiber_size,
        "torsion": list(pp.torsion),
        "rank_preserving": pp.rank_preserving,
    }
    return inputs, outputs, []


def _run_obstruct(params, seed, cap, tol):
    pp = _projected_phase(params, cap)
    phi, A = pp.phi, pp.tau.codomain
    f = _function(_need(params, "function", dict), A, seed)
    order = params.get("order")
    if order is None:
        order = pp.degree + 1
    elif type(order) is not int:
        raise ConfigError("'order' must be an integer")
    if order > pp.degree:  # a lower order is refused by obstruction_check, which runs its norm uncapped
        cap_power(A.order, order, cap, "|A|^order")
    rep = obstruction_check(f, pp, order=order, tol=tol)
    inputs = {
        "domain": list(phi.domain.orders),
        "codomain": list(A.orders),
        "degree": pp.degree,
        "order": rep.order,
    }
    outputs = {"correlation": rep.correlation, "norm": rep.norm, "margin": rep.margin}
    return inputs, outputs, [("obstruction", rep.order, rep.norm)]


def _run_avg_split(params, seed, cap, tol):
    rho, split, meta = _cocycle_from_config(params, seed, cap)
    E = factor_average(rho, split)
    Ep = rooted_factor_average(rho, split)
    outputs = {
        "cube_count": len(rho.carrier.members),
        "e_values": E.array,
        "eprime_values": Ep.array,
        "e_is_cocycle": True,
    }
    return meta, outputs, []


def _run_cocycle_split(params, seed, cap, tol):
    rho, split, meta = _cocycle_from_config(params, seed, cap)
    res = split_cocycle(rho, split)
    residual = res.residual.array
    outputs = {
        "cube_count": len(rho.carrier.members),
        "kappa_values": res.kappa.array,
        "g": res.g.array,
        "residual_max": int(residual.max(initial=0)),
        "residual_all_zero": not residual.any(),
    }
    return meta, outputs, []


def _run_morphisms(params, seed, cap, tol):
    X = _nilspace(_need(params, "x", list))
    Y = _nilspace(_need(params, "y", list))
    morphs = enumerate_morphisms(X, Y, cap=cap)
    tables = np.array(morphs, dtype=np.int64).reshape(len(morphs), X.group.order, Y.group.ncoords)
    inputs = {"x": list(X.factors), "y": list(Y.factors)}
    outputs = {
        "count": len(morphs),
        "tables": tables,
        "constants": int((tables == tables[:, :1]).all(axis=(1, 2)).sum()),
    }
    return inputs, outputs, []


def _run_decompose(params, seed, cap, tol):
    G = _group(_need(params, "group", list))
    _capped(sum(map(math.isqrt, G.orders)), cap, "trial divisions, the sum of isqrt(m_j)")
    dec = primary_decompose(G)
    inputs = {"group": list(G.orders)}
    outputs = {
        "primes": list(dec.primes),
        "components": {str(p): list(dec.components[p].orders) for p in dec.primes},
        "iso_matrix": [list(r) for r in dec.iso.matrix],
        "iso_inverse_matrix": [list(r) for r in dec.iso_inv.matrix],
    }
    return inputs, outputs, []


_RUNNERS = {
    "norm": _run_norm,
    "cutnorm": _run_cutnorm,
    "boxnorm": _run_boxnorm,
    "complement": _run_complement,
    "shrink": _run_shrink,
    "crosssection": _run_crosssection,
    "project": _run_project,
    "obstruct": _run_obstruct,
    "avg-split": _run_avg_split,
    "cocycle-split": _run_cocycle_split,
    "morphisms": _run_morphisms,
    "decompose": _run_decompose,
}
COMMANDS = tuple(_RUNNERS)


def run(config: dict) -> tuple[dict, list]:
    """Execute one experiment config; returns (result record, csv rows)."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {config.get('schema')!r}")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    params = config.get("params")
    if not isinstance(params, dict):
        raise ConfigError("missing 'params' object")
    seed = config.get("seed")
    if seed is not None and type(seed) is not int:  # bool is not an integer here
        raise ConfigError("'seed' must be an integer")
    cap = config.get("cap", DEFAULT_CAP)
    if type(cap) is not int:
        raise ConfigError("'cap' must be an integer")
    tol = config.get("tolerance", DEFAULT_TOL)
    if type(tol) not in (int, float) or not 0 <= tol < math.inf:  # refuses NaN too
        raise ConfigError("'tolerance' must be a finite number >= 0")
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    t0 = time.perf_counter()
    inputs, outputs, norm_rows = _RUNNERS[command](params, seed, cap, tol)
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    record = {
        "schema": RESULT_SCHEMA,
        "library_version": __version__,
        "command": command,
        "config_digest": digest,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "runtime_ms": runtime_ms,
    }
    csv_rows = [
        (digest[:12], kind, k, value, runtime_ms) for kind, k, value in norm_rows
    ]
    return record, csv_rows


# ---------------------------------------------------------------------------
# golden suite


def _goldens_path() -> str:
    return os.path.join(os.path.dirname(__file__), "goldens.json")


def _golden_cases() -> dict:
    """One callable per stored golden value; each returns the computed value."""
    from .polymaps import cyclic_lift

    def hull_z3z27():
        G = FinAbGroup((3, 27))
        H, K = complemented_hull(G.element((1, 3)))
        return {"order": H.order, "complement_order": K.order}

    def find_complement_z3z27():
        G = FinAbGroup((3, 27))
        return find_complement(Subgroup.from_generators(G, [(1, 3)])) is not None

    def degree_lift_z3_z9():
        return PolyMap(FinAbGroup((3,)), FinAbGroup((9,)), ((0,), (1,), (2,))).degree

    def nonpoly_z3_z6():
        return PolyMap(FinAbGroup((3,)), FinAbGroup((6,)), ((0,), (1,), (5,))).degree

    def cyclic_lift_degree():
        return cyclic_lift(3, 1, 2).degree

    def cross_section_z9_z3():
        tau = Homomorphism(FinAbGroup((9,)), FinAbGroup((3,)), [[1]])
        return polynomial_cross_section(tau).degree

    def u3(l):
        return lambda: gowers_norm(bilinear_function(l), 3)

    def box(l):
        return lambda: box_norm_4cycle(bilinear_function(l), l)

    def cli_boxnorm_l2():
        cfg = {
            "schema": CONFIG_SCHEMA,
            "command": "boxnorm",
            "params": {
                "group": [2, 2, 2, 2],
                "split": 2,
                "function": {"kind": "bilinear", "l": 2},
            },
        }
        record, _ = run(cfg)
        return record["outputs"]["value"]

    def cli_complement_z3z27():
        cfg = {
            "schema": CONFIG_SCHEMA,
            "command": "complement",
            "params": {"group": [3, 27], "generators": [[1, 3]]},
        }
        record, _ = run(cfg)
        out = record["outputs"]
        return {
            "complement": out["complement"],
            "hull_order": out["complemented_hull"]["order"],
        }

    return {
        "find_complement_z3z27": find_complement_z3z27,
        "complemented_hull_z3z27": hull_z3z27,
        "degree_lift_z3_to_z9": degree_lift_z3_z9,
        "nonpolynomial_z3_to_z6": nonpoly_z3_z6,
        "cyclic_lift_3_1_2_degree": cyclic_lift_degree,
        "cross_section_z9_z3_degree": cross_section_z9_z3,
        "gowers_u3_bilinear_l1": u3(1),
        "gowers_u3_bilinear_l2": u3(2),
        "gowers_u3_bilinear_l3": u3(3),
        "box_norm_bilinear_l1": box(1),
        "box_norm_bilinear_l2": box(2),
        "box_norm_bilinear_l3": box(3),
        "cli_boxnorm_bilinear_l2": cli_boxnorm_l2,
        "cli_complement_z3z27": cli_complement_z3z27,
    }


def _match(expected, actual, tol: float) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(_match(expected[k], actual[k], tol) for k in expected)
        )
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and abs(expected - actual) <= tol
    return expected == actual


def golden_suite(*, filter_name: str | None = None, golden_path: str | None = None) -> dict:
    """Run every stored golden case and compare against the golden file."""
    path = golden_path or _goldens_path()
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != GOLDEN_SCHEMA:
        raise ConfigError(f"unsupported golden schema in {path}")
    cases = _golden_cases()
    report = {"cases": [], "all_pass": True}
    for name, spec in sorted(data["cases"].items()):
        if filter_name is not None and filter_name != name:
            continue
        if name not in cases:
            report["cases"].append({"name": name, "pass": False, "error": "unknown case"})
            report["all_pass"] = False
            continue
        t0 = time.perf_counter()
        actual = cases[name]()
        dt = (time.perf_counter() - t0) * 1000.0
        ok = _match(spec["expected"], actual, spec.get("tolerance", 0.0))
        report["cases"].append(
            {
                "name": name,
                "pass": ok,
                "expected": spec["expected"],
                "actual": actual,
                "runtime_ms": dt,
            }
        )
        if not ok:
            report["all_pass"] = False
    if filter_name is not None and not report["cases"]:
        raise ConfigError(f"no golden case named {filter_name!r}")
    return report


# ---------------------------------------------------------------------------
# entry point


# numbers the temporary files of ``_atomic_write`` within this process
_tmp_numbers = count()


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a new 0600 file beside ``path`` and rename it over ``path``."""
    while True:
        tmp = f"{path}.{os.getpid()}.{next(_tmp_numbers)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o600)
            break
        except FileExistsError:
            continue
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _scalar(v) -> str:
    """A JSON scalar as ``json.dumps`` writes it; NaN and infinities raise ValueError."""
    if isinstance(v, str):
        return _string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _table_template(shape: tuple[int, ...], indent: str, cell: str) -> str:
    """The text of a nest of lists of this shape, with the format ``cell`` for each entry."""
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    item = _table_template(shape[1:], inner, cell) if len(shape) > 1 else cell
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + indent + "]"


def _dumps(v, indent: str = "") -> str:
    """``json.dumps(v, indent=2, sort_keys=True, allow_nan=False)``, byte for byte,
    with each int or float numpy array written as its nested lists.

    With an indent the standard library falls back to its pure-Python
    encoder, one call per value.  Here a list of scalars is one join and an
    array, of any shape, is one %-template.
    """
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            f"{_string(k if isinstance(k, str) else _scalar(k))}: {_dumps(x, inner)}"
            for k, x in sorted(v.items())
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(v, np.ndarray):
        # tolist gives Python ints and floats, so %r is float.__repr__, as json.dumps writes
        floats = v.dtype.kind == "f"
        if floats and not np.isfinite(v).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _table_template(v.shape, indent, "%r" if floats else "%d") % tuple(v.ravel().tolist())
    if not isinstance(v, (list, tuple)):
        return _scalar(v)
    if not v:
        return "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    types = set(map(type, v))
    if types <= _SCALARS:
        body = sep.join(map(_scalar, v))
    else:
        body = sep.join([_dumps(x, inner) for x in v])
    return "[\n" + inner + body + "\n" + indent + "]"


def _emit(record: dict, csv_rows: list, args) -> None:
    # a NaN or infinity is not JSON: the ValueError refuses the record (exit 2)
    text = _dumps(record) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.csv:
        lines = ["instance_id,kind,k,value,runtime_ms"]
        lines += [f"{i},{kind},{k},{v!r},{ms:.3f}" for i, kind, k, v, ms in csv_rows]
        csv_text = "\n".join(lines) + "\n"
        if args.out:
            _atomic_write(args.out + ".csv", csv_text)
        else:
            sys.stdout.write(csv_text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gowerslab",
        description="Exact desk-scale experiments in higher-order Fourier analysis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a '{name}' experiment from a config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="write the result record to this path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--cap", type=int, help="override the cost cap")
        p.add_argument("--tolerance", type=float, help="override the tolerance")
        p.add_argument("--csv", action="store_true", help="also emit CSV rows")
    g = sub.add_parser("golden", help="run the golden suite of worked examples")
    g.add_argument("--filter", help="run a single golden case by name")
    g.add_argument("--golden-file", help="use an alternative golden file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.subcommand == "golden":
            report = golden_suite(filter_name=args.filter, golden_path=args.golden_file)
            for case in report["cases"]:
                status = "PASS" if case["pass"] else "FAIL"
                line = f"[{status}] {case['name']}"
                if not case["pass"]:
                    line += f"  expected={case.get('expected')!r} actual={case.get('actual')!r}"
                print(line)
            print("golden suite:", "all pass" if report["all_pass"] else "FAILURES")
            return 0 if report["all_pass"] else 1

        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if config.get("command", args.subcommand) != args.subcommand:
            raise ConfigError(
                f"config command {config.get('command')!r} does not match "
                f"subcommand {args.subcommand!r}"
            )
        config["command"] = args.subcommand
        if args.seed is not None:
            config["seed"] = args.seed
        if args.cap is not None:
            config["cap"] = args.cap
        if args.tolerance is not None:
            config["tolerance"] = args.tolerance
        record, csv_rows = run(config)
        _emit(record, csv_rows, args)
        return 0
    except CapExceeded as e:
        print(f"cost cap exceeded: {e}", file=sys.stderr)
        return 3
    except (PostconditionError, CoprimalityError) as e:
        print(f"postcondition failure: {e}", file=sys.stderr)
        return 4
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
