"""Digests of every record that the benchmark workloads produce.

For each of the four workloads of ``perfbench/workloads.py`` at seeds 0 and 1,
every warm-up and operation that is a CLI config runs through ``cli.main``;
its entry holds the exit code and the SHA-256 of the record without
``runtime_ms`` (``json.dumps(record, sort_keys=True)``), or null when no
record is written.  Every direct ``gowers_norm_exact`` operation is pinned by
its ``(modulus, counts, scale)``.  The configs of ``pins()`` are pinned the same
way, under ``pin/`` keys: one per group command, the crosssection, project
and obstruct configs of ten seeded surjections, and two seeded cutnorm
configs.  ``tests/test_records.py`` checks the stored file against a fresh
pass.

Regenerate ``tests/records.json`` after a change that is meant to move records:

    PYTHONPATH=src python tests/record_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = Path(__file__).with_name("records.json")
SEEDS = (0, 1)


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _config(command: str, params: dict, **extra) -> dict:
    return {"schema": "gowerslab/config-1", "command": command, "params": params, **extra}


def _surjection_configs(seed: int) -> dict:
    """crosssection, project and obstruct configs of one seeded surjection and phase polynomial."""
    from gowerslab.instances import random_phase_polynomial, random_surjection

    rng = random.Random(seed)
    tau = random_surjection(rng, max_coords_a=3, extra_coords=2, max_order_b=2**9)
    phi = random_phase_polynomial(rng, tau.domain, 1 + seed % 3)
    surj = {"domain": list(tau.domain.orders), "codomain": list(tau.codomain.orders), "matrix": [list(r) for r in tau.matrix]}
    phase = dict(surj, phase_modulus=phi.codomain.orders[0], phase_table=[v for (v,) in phi.table])
    obstruct = dict(phase, function={"kind": "random_bounded"})
    return {
        f"pin/surjection/{seed}/crosssection": _config("crosssection", surj),
        f"pin/surjection/{seed}/project": _config("project", phase),
        f"pin/surjection/{seed}/obstruct": _config("obstruct", obstruct, seed=seed),
    }


def pins() -> dict:
    """Entry id -> config of every record pinned outside the workloads."""
    unimodular = {"kind": "random_unimodular"}
    out = {
        "pin/group/complement-found": _config(
            "complement", {"group": [4, 8, 9, 3, 5, 5], "generators": [[1, 2, 0, 0, 0, 0], [0, 0, 3, 1, 0, 0]]}
        ),
        "pin/group/complement-hull": _config("complement", {"group": [3, 27], "generators": [[1, 3]]}),
        "pin/group/complement-enlarge": _config(
            "complement", {"group": [3, 27, 9, 9], "generators": [[1, 3, 0, 0], [0, 9, 3, 0]]}
        ),
        "pin/group/shrink-pgroup": _config("shrink", {"group": [2, 4, 8], "generators": [[1, 1, 1], [1, 0, 7]]}),
        "pin/group/shrink-mixed": _config("shrink", {"group": [6, 12, 4, 5], "generators": [[1, 2, 3, 1], [2, 5, 1, 0]]}),
        "pin/group/decompose": _config("decompose", {"group": [8, 9, 10]}),
        "pin/group/crosssection": _config("crosssection", {"domain": [27, 3], "codomain": [9], "matrix": [[1, 3]]}),
        "pin/group/project": _config(
            "project",
            {
                "domain": [4, 8],
                "codomain": [4],
                "matrix": [[1, 1]],
                "phase_modulus": 4,
                "phase_table": [(a * b + b * b) % 4 for a in range(4) for b in range(8)],
            },
        ),
        "pin/cutnorm/21": _config("cutnorm", {"group": [2, 3, 4, 2], "d": 2, "function": unimodular}, seed=21),
        "pin/cutnorm/34": _config("cutnorm", {"group": [3, 3, 3, 3], "d": 1, "function": unimodular}, seed=34),
    }
    for seed in range(10):
        out.update(_surjection_configs(seed))
    return out


def _run_config(config: dict, workdir: Path) -> dict:
    from gowerslab.cli import main

    path, out = workdir / "config.json", workdir / "record.json"
    path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([config["command"], "--config", str(path), "--out", str(out)])
    if not out.exists():
        return {"exit": code, "sha256": None}
    record = json.loads(out.read_text())
    del record["runtime_ms"]
    return {"exit": code, "sha256": hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()}


def _run_exact(args: dict) -> dict:
    from gowerslab.groups import FinAbGroup
    from gowerslab.harmonics import GroupFunction, gowers_norm_exact

    f = GroupFunction.from_phases(FinAbGroup(args["orders"]), [Fraction(a, b) for a, b in args["phases"]])
    res = gowers_norm_exact(f, args["order"])
    return {"modulus": res.modulus, "counts": list(res.counts), "scale": res.scale}


def compute() -> dict:
    """Entry id -> pinned result, for every config and exact op of every workload and seed, and every pin."""
    workloads = _workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                w = workloads.build(name, seed)
                for tag, ops in (("warm", w.warmups), ("op", w.ops)):
                    for i, op in enumerate(ops):
                        key = f"{name}/{seed}/{tag}{i}"
                        if op.config is not None:
                            out[key] = dict(_run_config(op.config, Path(tmp)), label=op.label)
                        elif op.command == "gowers_norm_exact":
                            out[key] = dict(_run_exact(op.args), label=op.label)
        for key, config in pins().items():
            out[key] = dict(_run_config(config, Path(tmp)), label=key.removeprefix("pin/"))
    return out


def main() -> None:
    entries = sorted(compute().items())
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries)
    RECORDS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
