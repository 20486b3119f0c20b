"""Digests of every record that the benchmark workloads produce.

For each of the four workloads of ``perfbench/workloads.py`` at seeds 0 and 1,
every warm-up and operation that is a CLI config runs through ``cli.main``;
its entry holds the exit code and the SHA-256 of the record without
``runtime_ms`` (``json.dumps(record, sort_keys=True)``), or null when no
record is written.  Every direct ``gowers_norm_exact`` operation is pinned by
its ``(modulus, counts, scale)``.  ``tests/test_records.py`` checks the stored
file against a fresh pass.

Regenerate ``tests/records.json`` after a change that is meant to move records:

    PYTHONPATH=src python tests/record_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
    """Entry id -> pinned result, for every config and exact op of every workload and seed."""
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
    return out


def main() -> None:
    entries = sorted(compute().items())
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries)
    RECORDS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
