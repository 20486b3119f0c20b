"""Config execution, result records, exit codes, and the golden suite."""

import copy
import errno
import hashlib
import itertools
import json
import math
import os
import random
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gowerslab import cli
from gowerslab.cli import _dumps, golden_suite, main, run
from gowerslab.errors import CapExceeded, ConfigError, cap_power
from record_digests import RECORDS, _run_config, pins
from test_groups import deadline


def cfg(command, params, **extra):
    out = {"schema": "gowerslab/config-1", "command": command, "params": params}
    out.update(extra)
    return out


def plain(tree):
    """``tree`` with each numpy array in it as its nested lists."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {k: plain(v) for k, v in tree.items()}
    return tree


# ---------------------------------------------------------------------------
# run()


def test_norm_ones_on_z6():
    record, rows = run(cfg("norm", {"group": [6], "order": 3, "function": {"kind": "ones"}}))
    assert abs(record["outputs"]["value"] - 1.0) < 1e-9
    assert rows and rows[0][1] == "gowers" and rows[0][2] == 3


def test_boxnorm_bilinear_l2():
    record, _ = run(
        cfg(
            "boxnorm",
            {"group": [2, 2, 2, 2], "split": 2, "function": {"kind": "bilinear", "l": 2}},
        )
    )
    assert abs(record["outputs"]["value"] - 2**-0.5) < 1e-9


def test_complement_no_complement_plus_hull():
    record, _ = run(cfg("complement", {"group": [3, 27], "generators": [[1, 3]]}))
    out = record["outputs"]
    assert out["complement"] is None
    assert out["complemented_hull"]["order"] == 81
    assert out["complemented_hull"]["complement_order"] == 1


def test_complement_found():
    record, _ = run(cfg("complement", {"group": [2, 4], "generators": [[1, 0]]}))
    assert record["outputs"]["complement"]["order"] == 4


def test_shrink_record():
    record, _ = run(cfg("shrink", {"group": [3, 27], "generators": [[1, 0], [0, 3]]}))
    out = record["outputs"]
    assert out["shrunk_order"] * out["complement_order"] == 81


def test_crosssection_record():
    record, _ = run(
        cfg("crosssection", {"domain": [9], "codomain": [3], "matrix": [[1]]})
    )
    assert record["outputs"]["degree"] == 3
    assert plain(record)["outputs"]["table"] == [[0], [1], [2]]


def test_project_record():
    record, _ = run(
        cfg(
            "project",
            {
                "domain": [4],
                "codomain": [2],
                "matrix": [[1]],
                "phase_table": [0, 1, 2, 3],
                "phase_modulus": 4,
            },
        )
    )
    vals = record["outputs"]["values"]
    assert all(abs(complex(re, im)) < 1e-12 for re, im in vals)


def test_obstruct_record():
    record, _ = run(
        cfg(
            "obstruct",
            {
                "domain": [4],
                "codomain": [2],
                "matrix": [[1]],
                "phase_table": [0, 1, 2, 3],
                "phase_modulus": 4,
                "function": {"kind": "random_bounded"},
            },
            seed=5,
        )
    )
    out = record["outputs"]
    assert out["correlation"] <= out["norm"] + 1e-9


def test_cutnorm_requires_seed():
    with pytest.raises(ConfigError):
        run(cfg("cutnorm", {"group": [2, 3], "d": 1, "function": {"kind": "ones"}}))


def test_cutnorm_record_with_witnesses():
    record, rows = run(
        cfg("cutnorm", {"group": [2, 3], "d": 1, "function": {"kind": "ones"}}, seed=4)
    )
    assert abs(record["outputs"]["value"] - 1.0) < 1e-9
    assert set(record["outputs"]["witnesses"]) == {"0", "1"}
    # witnesses are 1-bounded
    for w in record["outputs"]["witnesses"].values():
        assert all(math.hypot(re, im) <= 1 + 1e-9 for re, im in w)


def test_morphisms_record():
    record, _ = run(cfg("morphisms", {"x": [[2, 1]], "y": [[3, 2]]}))
    assert record["outputs"]["count"] == 3
    assert record["outputs"]["constants"] == 3


def test_decompose_record():
    record, _ = run(cfg("decompose", {"group": [12]}))
    assert record["outputs"]["primes"] == [2, 3]
    assert record["outputs"]["components"] == {"2": [4], "3": [3]}


def test_avg_split_and_cocycle_split_records():
    params = {
        "y1": [[2, 1]],
        "y2": [[3, 1]],
        "z": [3],
        "k": 1,
        "cocycle": {"kind": "random"},
    }
    rec1, _ = run(cfg("avg-split", params, seed=9))
    assert rec1["outputs"]["cube_count"] == 216
    rec2, _ = run(cfg("cocycle-split", params, seed=9))
    assert rec2["outputs"]["residual_all_zero"] is True
    assert len(rec2["outputs"]["kappa_values"]) == 216


def test_cocycle_split_from_explicit_coboundary_table():
    X_order = 6
    g = [[v % 3] for v in range(X_order)]
    params = {
        "y1": [[2, 1]],
        "y2": [[3, 1]],
        "z": [3],
        "k": 1,
        "cocycle": {"kind": "coboundary", "g": g},
    }
    rec, _ = run(cfg("cocycle-split", params))
    assert rec["outputs"]["residual_all_zero"] is True


def test_determinism_identical_records():
    config = cfg(
        "cutnorm", {"group": [2, 3], "d": 1, "function": {"kind": "random_bounded"}}, seed=12
    )
    a, _ = run(copy.deepcopy(config))
    b, _ = run(copy.deepcopy(config))
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert plain(a) == plain(b)


_EMPTY_SPLIT = {"y1": [[2, 1]], "y2": [[3, 1]], "z": [], "k": 1, "cocycle": {"kind": "random"}}
_TRIVIAL_SURJECTION = {"domain": [], "codomain": [], "matrix": []}


@pytest.mark.parametrize(
    "command, params, arrays",
    [
        ("morphisms", {"x": [], "y": [[2, 1]]}, ["tables"]),
        ("morphisms", {"x": [[2, 1]], "y": []}, ["tables"]),
        ("avg-split", _EMPTY_SPLIT, ["e_values", "eprime_values"]),
        ("cocycle-split", _EMPTY_SPLIT, ["kappa_values", "g"]),
        ("crosssection", _TRIVIAL_SURJECTION, ["table"]),
        ("project", dict(_TRIVIAL_SURJECTION, phase_table=[1], phase_modulus=2), ["values"]),
        ("complement", {"group": [], "generators": []}, ["complement.generators"]),
        ("shrink", {"group": [], "generators": []}, ["shrunk_generators", "complement_generators"]),
    ],
)
def test_empty_dimensions_write_their_arrays_as_json_does(tmp_path, monkeypatch, command, params, arrays):
    # the record main writes, taken from run(): its tables stay numpy arrays up to the writer
    records = []

    def keep(config):
        records.append(run(config))
        return records[-1]

    monkeypatch.setattr(cli, "run", keep)
    out = tmp_path / "r.json"
    assert main([command, "--config", _write(tmp_path, "c.json", cfg(command, params, seed=3)), "--out", str(out)]) == 0
    (record, _), = records
    assert out.read_text() == json.dumps(plain(record), indent=2, sort_keys=True) + "\n"
    for path in arrays:
        field = record["outputs"]
        for key in path.split("."):
            field = field[key]
        assert isinstance(field, np.ndarray), path


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        run(cfg("frobnicate", {}))


def test_bad_schema_rejected():
    config = cfg("norm", {"group": [6], "order": 2, "function": {"kind": "ones"}})
    config["schema"] = "other/1"
    with pytest.raises(ConfigError):
        run(config)


# ---------------------------------------------------------------------------
# main() exit codes and file outputs


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_main_success_writes_record_and_csv(tmp_path):
    path = _write(
        tmp_path, "c.json", cfg("norm", {"group": [6], "order": 3, "function": {"kind": "ones"}})
    )
    out = tmp_path / "rec.json"
    code = main(["norm", "--config", path, "--out", str(out), "--csv"])
    assert code == 0
    record = json.loads(out.read_text())
    assert abs(record["outputs"]["value"] - 1.0) < 1e-9
    csv_text = (tmp_path / "rec.json.csv").read_text().splitlines()
    assert csv_text[0] == "instance_id,kind,k,value,runtime_ms"
    assert len(csv_text) == 2


def test_main_validation_error_exit_2(tmp_path):
    path = _write(tmp_path, "c.json", cfg("norm", {"group": [6]}))
    assert main(["norm", "--config", path]) == 2


def test_main_command_mismatch_exit_2(tmp_path):
    path = _write(
        tmp_path, "c.json", cfg("norm", {"group": [6], "order": 2, "function": {"kind": "ones"}})
    )
    assert main(["boxnorm", "--config", path]) == 2


def test_main_config_directory_exit_2(tmp_path, capsys):
    assert main(["decompose", "--config", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_main_out_directory_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "c.json", cfg("decompose", {"group": [12]}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["decompose", "--config", path, "--out", str(out)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"] and not any(out.iterdir())


def test_main_cutnorm_negative_seed_exit_2(tmp_path, capsys):
    params = {"group": [2, 3], "d": 1, "function": {"kind": "ones"}}
    path = _write(tmp_path, "c.json", cfg("cutnorm", params, seed=-1))
    assert main(["cutnorm", "--config", path]) == 2
    assert "'seed'" in capsys.readouterr().err
    path = _write(tmp_path, "d.json", cfg("cutnorm", params, seed=4))
    assert main(["cutnorm", "--config", path, "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert main(["cutnorm", "--config", path, "--seed", "0"]) == 0


def test_main_cap_exit_3(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        cfg("norm", {"group": [64], "order": 3, "function": {"kind": "ones"}}, cap=100),
    )
    assert main(["norm", "--config", path]) == 3


@pytest.mark.parametrize("command", ["avg-split", "cocycle-split"])
@pytest.mark.parametrize("cap, code", [(10, 3), ("10", 2)])
def test_main_split_cap(tmp_path, command, cap, code):
    # D1(Z2) x D1(Z3) at k = 1 carries 216 cubes
    params = {"y1": [[2, 1]], "y2": [[3, 1]], "z": [3], "k": 1, "cocycle": {"kind": "random"}}
    path = _write(tmp_path, "c.json", cfg(command, params, seed=9, cap=cap))
    assert main([command, "--config", path]) == code


def test_main_norm_cap_boundary(tmp_path):
    # U^3 on Z12 costs 12^3 = 1,728 multiplies: runs at that cap, not below it
    params = {"group": [12], "order": 3, "function": {"kind": "ones"}}
    path = _write(tmp_path, "c.json", cfg("norm", params, cap=12**3))
    assert main(["norm", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
    path = _write(tmp_path, "d.json", cfg("norm", params, cap=12**3 - 1))
    assert main(["norm", "--config", path]) == 3


@pytest.mark.parametrize(
    "group, d, seed, value_hex, witness_sha256",
    [
        ([2, 3, 4, 2], 2, 21, "0x1.a4204410acd20p-1", "d306f87f9b454dda900389e67e32577a291ef9d240083a2c57eb7108773c410c"),
        ([3, 3, 3, 3], 1, 34, "0x1.b1b8ce96f6cc8p-2", "ecc48712281d7f3f2967f867c44ca9349ab900341cee7b6360ffd8b63873558d"),
    ],
)
def test_main_cutnorm_record_is_pinned(tmp_path, group, d, seed, value_hex, witness_sha256):
    # the value bit for bit and a digest of every witness float, as the record writes them
    params = {"group": group, "d": d, "function": {"kind": "random_unimodular"}}
    path = _write(tmp_path, "c.json", cfg("cutnorm", params, seed=seed))
    out = tmp_path / "r.json"
    assert main(["cutnorm", "--config", path, "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert outputs["value"].hex() == value_hex
    witnesses = json.dumps(outputs["witnesses"], sort_keys=True).encode()
    assert hashlib.sha256(witnesses).hexdigest() == witness_sha256


def _pinned(tmp_path, key):
    """Whether the record of pin ``key`` matches its entry in tests/records.json."""
    expected = dict(json.loads(RECORDS.read_text())[key])
    del expected["label"]
    return _run_config(pins()[key], tmp_path) == expected


@pytest.mark.parametrize("name", [k.removeprefix("pin/group/") for k in pins() if k.startswith("pin/group/")])
def test_main_group_record_is_pinned(tmp_path, name):
    assert _pinned(tmp_path, f"pin/group/{name}")


@pytest.mark.parametrize("seed", range(10))
def test_main_surjection_records_are_pinned(tmp_path, seed):
    for command in ("crosssection", "project", "obstruct"):
        assert _pinned(tmp_path, f"pin/surjection/{seed}/{command}"), command


@pytest.mark.parametrize(
    "command, params",
    [
        ("complement", {"group": [2**50], "generators": [[2]]}),
        ("shrink", {"group": [2**50], "generators": [[2]]}),
        ("crosssection", {"domain": [2**50], "codomain": [2], "matrix": [[1]]}),
    ],
)
def test_main_huge_group_exit_3(tmp_path, command, params):
    # 2|A|, |A| and |B| are compared with the cap before any group-sized array is built
    path = _write(tmp_path, "c.json", cfg(command, params))
    assert main([command, "--config", path]) == 3


_SPLIT_PARAMS = {"y1": [[2, 1]], "y2": [[3, 1]], "z": [3], "k": 1, "cocycle": {"kind": "random"}}
_TRIVIAL_SPLIT = dict(_SPLIT_PARAMS, y1=[[1, 1]], y2=[[1, 1]])
_OBSTRUCT_U4 = {  # |A| N = 64, and U^4 on |A| = 16 sums 16^4 = 65,536 terms
    "domain": [16],
    "codomain": [16],
    "matrix": [[1]],
    "phase_modulus": 4,
    "phase_table": [x % 4 for x in range(16)],
    "function": {"kind": "ones"},
    "order": 4,
}


@pytest.mark.parametrize(
    "command, params, extra",
    [
        # each cost is compared with the cap before the input function is built
        ("norm", {"group": [2**20, 2**20], "order": 2, "function": {"kind": "ones"}}, {}),
        ("boxnorm", {"group": [2**20, 2**20], "split": 1, "function": {"kind": "ones"}}, {}),
        ("cutnorm", {"group": [2**20, 2**20], "d": 1, "function": {"kind": "ones"}}, {"seed": 1}),
        # a z order that does not fit in int64
        ("avg-split", dict(_SPLIT_PARAMS, z=[2**70]), {"seed": 1}),
        ("cocycle-split", dict(_SPLIT_PARAMS, z=[2**70]), {"seed": 1}),
        # powers compared with the cap from their bit lengths, never taken
        ("morphisms", {"x": [[2**70, 1]], "y": [[2, 1]]}, {}),
        ("norm", {"group": [4], "order": 10**9, "function": {"kind": "ones"}}, {}),
        ("avg-split", dict(_SPLIT_PARAMS, k=10**7), {"seed": 1}),
        # obstruct's norm honours the config cap
        ("obstruct", _OBSTRUCT_U4, {"cap": 64}),
        # a (d+1)-cube of more than 2^20 vertices, refused before it is sized
        ("morphisms", {"x": [[2, 1]], "y": [[2, 2**40]]}, {}),
        ("morphisms", {"x": [[1, 1]], "y": [[2, 100]]}, {}),
        # a trivial carrier has one cube, but of 2^(k+1) vertices: beyond the cube-set cap
        ("avg-split", dict(_TRIVIAL_SPLIT, k=30), {"seed": 1}),
        ("cocycle-split", dict(_TRIVIAL_SPLIT, k=30), {"seed": 1}),
        ("avg-split", dict(_TRIVIAL_SPLIT, k=100), {"seed": 1}),
        ("cocycle-split", dict(_TRIVIAL_SPLIT, k=100), {"seed": 1}),
        # trial division costs up to sum_j isqrt(m_j): a Mersenne prime 2^61 - 1 and a 100-bit prime
        ("decompose", {"group": [2**61 - 1]}, {}),
        ("decompose", {"group": [2**100 - 15]}, {}),
        # |Y|^|X| = 1, but a table of |X| = 2^32 values
        ("morphisms", {"x": [[2**32, 1]], "y": []}, {}),
        ("morphisms", {"x": [[2**32, 1]], "y": [[1, 1]]}, {}),
        # a codomain order beyond int64, inside the cap
        ("morphisms", {"x": [[1, 1]], "y": [[2**63, 1]]}, {"cap": 2**70}),
    ],
    ids=[
        "norm-2^40",
        "boxnorm-2^40",
        "cutnorm-2^40",
        "avg-split-z-2^70",
        "cocycle-split-z-2^70",
        "morphisms-x-2^70",
        "norm-order-10^9",
        "avg-split-k-10^7",
        "obstruct-U4-cap-64",
        "morphisms-y-degree-2^40",
        "morphisms-trivial-x-y-degree-100",
        "avg-split-trivial-carrier-k-30",
        "cocycle-split-trivial-carrier-k-30",
        "avg-split-trivial-carrier-k-100",
        "cocycle-split-trivial-carrier-k-100",
        "decompose-2^61-1",
        "decompose-2^100-15",
        "morphisms-x-2^32-trivial-y",
        "morphisms-x-2^32-y-order-1",
        "morphisms-y-2^63-cap-2^70",
    ],
)
def test_main_oversized_config_exit_3_within_2s(tmp_path, command, params, extra):
    path = _write(tmp_path, "c.json", cfg(command, params, **extra))
    with deadline(2.0):
        assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


def test_main_morphisms_d1z10_to_d1z8_at_the_default_cap_runs(tmp_path):
    # 8^10 = 2^30 candidate tables, which the search took about two minutes over; the kernel has 16
    path = _write(tmp_path, "c.json", cfg("morphisms", {"x": [[10, 1]], "y": [[8, 1]]}))
    with deadline(1.0):
        assert main(["morphisms", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["outputs"]["count"] == 16


@pytest.mark.parametrize("command", ["avg-split", "cocycle-split"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("z", [2**31 + 11, 3_037_000_499])
def test_main_split_with_z_up_to_isqrt_int64_runs(tmp_path, command, k, z):
    # residue times inverse stays below z^2 <= 2^63 - 1
    path = _write(tmp_path, "c.json", cfg(command, dict(_SPLIT_PARAMS, z=[z], k=k), seed=5))
    assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("command", ["avg-split", "cocycle-split"])
@pytest.mark.parametrize("z", [3_037_000_501, 2**32 + 1, 2**62 + 1, 2**63 - 1])
def test_main_split_with_z_above_isqrt_int64_exit_3(tmp_path, command, z):
    # above the bound a residue product of the average can wrap in int64, and a
    # valid split then fails its own cocycle check (exit 4) or its input's (exit 2)
    path = _write(tmp_path, "c.json", cfg(command, dict(_SPLIT_PARAMS, z=[z]), seed=5))
    with deadline(2.0):
        assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


def _refused(base, exp, cap):
    try:
        cap_power(base, exp, cap, "cost")
    except CapExceeded:
        return True
    return False


@pytest.mark.parametrize("cap", [-5, 0, 1, 2, 7, 8, 9, 1000, 2**64 - 1, 2**64])
def test_cap_power_matches_the_power(cap):
    assert all(_refused(b, e, cap) == (b**e > cap) for b in range(12) for e in range(70))


def test_main_obstruct_norm_at_the_cap_runs(tmp_path):
    path = _write(tmp_path, "c.json", cfg("obstruct", _OBSTRUCT_U4, cap=16**4))
    assert main(["obstruct", "--config", path, "--out", str(tmp_path / "r.json")]) == 0


_PHASE_PARAMS = {"domain": [2], "codomain": [2], "matrix": [[1]], "phase_table": [0, 1]}


@pytest.mark.parametrize("command", ["project", "obstruct"])
@pytest.mark.parametrize("N, cap", [(2**70, None), (2**70, 2**80), (2**63, 2**80), (2**40, None), (2**10, 2**11 - 1)])
def test_main_huge_phase_modulus_exit_3(tmp_path, command, N, cap):
    # |A| N is the fiber histogram, compared with the cap before Z_N is built;
    # N >= 2^63 does not fit in int64 and is refused under any cap
    params = dict(_PHASE_PARAMS, phase_modulus=N, function={"kind": "ones"})
    extra = {} if cap is None else {"cap": cap}
    path = _write(tmp_path, "c.json", cfg(command, params, **extra))
    assert main([command, "--config", path]) == 3


@pytest.mark.parametrize("command", ["project", "obstruct"])
def test_main_phase_modulus_at_the_cap_runs(tmp_path, command):
    params = dict(_PHASE_PARAMS, phase_modulus=2**10, phase_table=[0, 2**9], function={"kind": "ones"})
    path = _write(tmp_path, "c.json", cfg(command, params, cap=2**11))
    assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "phases",
    [
        [[1, 2**70], [0, 1]],  # one denominator past 2^53
        [[1, p] for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)],  # lcm about 2^64.8
    ],
    ids=["2^70", "primes-to-53"],
)
def test_main_phase_denominator_above_2_53_exit_3(tmp_path, phases):
    params = {"group": [len(phases)], "order": 2, "function": {"kind": "phases", "phases": phases}}
    path = _write(tmp_path, "c.json", cfg("norm", params))
    assert main(["norm", "--config", path]) == 3


def test_main_cutnorm_cap(tmp_path):
    # (10^7 + 1) * 25 sweeps of C(2, 1)^2 * 4 entries each: refused before the first sweep
    params = _cut_params(restarts=10_000_000)
    path = _write(tmp_path, "c.json", cfg("cutnorm", params, seed=9, cap=10))
    start = time.perf_counter()
    assert main(["cutnorm", "--config", path]) == 3
    assert time.perf_counter() - start < 1.0
    # (8 + 1) * 25 * 4 * 4 = 3,600 predicted: runs at that cap, not below it
    path = _write(tmp_path, "d.json", cfg("cutnorm", _cut_params(), seed=9, cap=3600))
    assert main(["cutnorm", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
    path = _write(tmp_path, "e.json", cfg("cutnorm", _cut_params(), seed=9, cap=3599))
    assert main(["cutnorm", "--config", path]) == 3


@pytest.mark.parametrize("command", ["avg-split", "cocycle-split"])
@pytest.mark.parametrize(
    "k, cocycle",
    [
        (1, {"kind": "table", "values": [1] * 216}),
        (1, {"kind": "table", "values": [[0.5]] * 216}),
        (1, {"kind": "table", "values": [[False]] * 216}),
        (1, {"kind": "table", "values": [[0, 1]] * 216}),
        (1, {"kind": "coboundary", "g": [1] * 6}),
        (1, {"kind": "coboundary", "g": [[1.0]] * 6}),
        (-1, {"kind": "random"}),
        (True, {"kind": "random"}),
    ],
)
def test_main_bad_cocycle_config_exit_2(tmp_path, command, k, cocycle):
    # D1(Z2) x D1(Z3) at k = 1 carries 216 cubes and 6 points, Z3 one coordinate
    params = {"y1": [[2, 1]], "y2": [[3, 1]], "z": [3], "k": k, "cocycle": cocycle}
    path = _write(tmp_path, "c.json", cfg(command, params, seed=9))
    assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


OBSTRUCT_PARAMS = {
    "domain": [4],
    "codomain": [2],
    "matrix": [[1]],
    "phase_table": [0, 1, 2, 3],
    "phase_modulus": 4,
    "function": {"kind": "random_bounded"},
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("tolerance", "x"),
        ("tolerance", -1e-9),
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("tolerance", True),
        ("cap", True),
        ("seed", False),
    ],
)
def test_main_bad_scalar_field_exit_2(tmp_path, field, value):
    config = cfg("obstruct", OBSTRUCT_PARAMS, seed=5)
    config[field] = value
    path = _write(tmp_path, "c.json", config)  # NaN and Infinity as JSON extensions
    assert main(["obstruct", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def _norm_params(function, **extra):
    return dict({"group": [2, 2], "order": 2, "function": function}, **extra)


def _cut_params(**extra):
    return dict({"group": [2, 2], "d": 1, "function": {"kind": "ones"}}, **extra)


NAN_PAIRS = [[math.nan, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
INF_PAIRS = [[1.0, 0.0], [math.inf, 0.0], [1.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "command, params",
    [
        # booleans in integer fields
        ("norm", _norm_params({"kind": "ones"}, order=True)),
        ("boxnorm", {"group": [2, 2], "split": True, "function": {"kind": "ones"}}),
        ("cutnorm", _cut_params(d=True)),
        ("norm", _norm_params({"kind": "ones"}, group=[True, 2])),
        ("norm", _norm_params({"kind": "bilinear", "l": True})),
        ("project", dict(OBSTRUCT_PARAMS, phase_modulus=True)),
        ("obstruct", dict(OBSTRUCT_PARAMS, phase_table=[0, 0, 0, 0], order=True)),
        ("obstruct", dict(OBSTRUCT_PARAMS, order=2.5)),
        ("obstruct", dict(OBSTRUCT_PARAMS, order="3")),
        ("project", dict(OBSTRUCT_PARAMS, phase_table=[0, 1.5, 2, 3])),
        ("crosssection", {"domain": [9], "codomain": [3], "matrix": [[True]]}),
        ("complement", {"group": [2, 4], "generators": [[1.0, 0]]}),
        ("morphisms", {"x": [[2, True]], "y": [[2, 1]]}),
        # malformed function specs
        ("norm", _norm_params({"kind": "values", "values": [1, 0, 1, 0]})),
        ("norm", _norm_params({"kind": "values", "values": [[1, 0, 0]] * 4})),
        ("norm", _norm_params({"kind": "values", "values": [["a", 0]] * 4})),
        ("norm", _norm_params({"kind": "values", "values": [[True, 0]] * 4})),
        ("norm", _norm_params({"kind": "values", "values": NAN_PAIRS})),
        ("boxnorm", {"group": [2, 2], "split": 1, "function": {"kind": "values", "values": NAN_PAIRS}}),
        ("norm", _norm_params({"kind": "values", "values": INF_PAIRS})),
        ("boxnorm", {"group": [2, 2], "split": 1, "function": {"kind": "values", "values": INF_PAIRS}}),
        ("norm", _norm_params({"kind": "values", "values": [[1e308, 1e308]] * 4})),  # overflows to NaN
        ("norm", _norm_params({"kind": "phases", "phases": [1, 2, 1, 2]})),
        ("norm", _norm_params({"kind": "phases", "phases": [[1, 0]] + [[1, 2]] * 3})),
        ("norm", _norm_params({"kind": "phases", "phases": [[0.5, 1]] + [[1, 2]] * 3})),
        ("norm", _norm_params({"kind": "phases", "phases": [[True, 2]] + [[1, 2]] * 3})),
        ("norm", _norm_params({"kind": "character", "t": ["a", 0]})),
        ("norm", _norm_params({"kind": "character", "t": [True, 0]})),
        ("norm", _norm_params({"kind": "character", "t": [0.5, 0]})),
        # cut-norm iteration counts
        ("cutnorm", _cut_params(restarts=-5)),
        ("cutnorm", _cut_params(iters=0)),
        ("cutnorm", _cut_params(restarts=True)),
        ("cutnorm", _cut_params(iters=2.5)),
        # every restart's objective overflows to NaN
        ("cutnorm", _cut_params(function={"kind": "values", "values": [[1e308, 1e308]] * 4})),
    ],
)
def test_main_bad_norm_config_exit_2(tmp_path, command, params):
    path = _write(tmp_path, "c.json", cfg(command, params, seed=3))  # NaN and Infinity as JSON extensions
    assert main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tolerance, code", [("nan", 2), ("-1", 2), ("0", 0), ("1e-6", 0)])
def test_main_tolerance_override(tmp_path, tolerance, code):
    path = _write(tmp_path, "c.json", cfg("obstruct", OBSTRUCT_PARAMS, seed=5))
    out = tmp_path / "r.json"
    assert main(["obstruct", "--config", path, "--tolerance", tolerance, "--out", str(out)]) == code
    if code == 0:
        assert math.isfinite(json.loads(out.read_text())["outputs"]["margin"])


def test_main_noncoprime_exit_4(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        cfg(
            "cocycle-split",
            {"y1": [[3, 1]], "y2": [[3, 1]], "z": [3], "k": 1, "cocycle": {"kind": "random"}},
            seed=2,
        ),
    )
    assert main(["cocycle-split", "--config", path]) == 4


def test_main_seed_override(tmp_path):
    config = cfg("cutnorm", {"group": [2, 2], "d": 1, "function": {"kind": "random_bounded"}})
    path = _write(tmp_path, "c.json", config)
    out = tmp_path / "r.json"
    assert main(["cutnorm", "--config", path, "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7


# ---------------------------------------------------------------------------
# golden suite


def test_golden_suite_all_pass():
    import time

    t0 = time.perf_counter()
    report = golden_suite()
    assert time.perf_counter() - t0 < 60.0
    assert report["all_pass"]
    assert len(report["cases"]) == 14


def test_golden_suite_single_filter():
    report = golden_suite(filter_name="gowers_u3_bilinear_l1")
    assert len(report["cases"]) == 1 and report["all_pass"]


def test_golden_suite_unknown_filter():
    with pytest.raises(ConfigError):
        golden_suite(filter_name="no_such_case")


def test_golden_suite_detects_tampering(tmp_path):
    from gowerslab.cli import _goldens_path

    data = json.loads(open(_goldens_path()).read())
    data["cases"]["gowers_u3_bilinear_l1"]["expected"] = 0.5
    path = _write(tmp_path, "tampered.json", data)
    report = golden_suite(golden_path=path)
    assert not report["all_pass"]
    bad = [c for c in report["cases"] if not c["pass"]]
    assert len(bad) == 1
    assert bad[0]["name"] == "gowers_u3_bilinear_l1"
    assert bad[0]["expected"] == 0.5 and abs(bad[0]["actual"] - 1.0) < 1e-9


def test_main_golden_exit_codes(tmp_path):
    assert main(["golden", "--filter", "box_norm_bilinear_l1"]) == 0
    from gowerslab.cli import _goldens_path

    data = json.loads(open(_goldens_path()).read())
    data["cases"]["box_norm_bilinear_l1"]["expected"] = 0.1
    path = _write(tmp_path, "bad.json", data)
    assert main(["golden", "--golden-file", str(path)]) == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m gowerslab` is cli.main in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def python_m(*args):
        argv = [sys.executable, "-m", "gowerslab", *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    golden = python_m("golden", "--filter", "box_norm_bilinear_l1")
    assert golden.returncode == 0, golden.stderr
    path = _write(tmp_path, "c.json", cfg("decompose", {"group": [12, 18]}))
    assert python_m("decompose", "--config", path, "--out", str(tmp_path / "r.json")).returncode == 0
    assert main(["decompose", "--config", path, "--out", str(tmp_path / "s.json")]) == 0
    texts = [
        [line for line in (tmp_path / name).read_text().splitlines() if '"runtime_ms"' not in line]
        for name in ("r.json", "s.json")
    ]
    assert texts[0] == texts[1]


def test_cocycle_table_wire_format_round_trip():
    # serialize a coboundary cocycle in carrier order, feed it back as an
    # explicit table, and check the split against the original run
    from gowerslab.groups import FinAbGroup
    from gowerslab.nilcube import FilteredGroupNilspace, coboundary

    y1 = FilteredGroupNilspace(((2, 1),))
    y2 = FilteredGroupNilspace(((3, 1),))
    Z = FinAbGroup((3,))
    X = y1.product(y2)
    g = [[i % 3] for i in range(X.group.order)]
    rho = coboundary(X, Z, 2, [tuple(v) for v in g])
    values = rho.array.tolist()
    params = {
        "y1": [[2, 1]],
        "y2": [[3, 1]],
        "z": [3],
        "k": 1,
        "cocycle": {"kind": "table", "values": values},
    }
    rec, _ = run(cfg("cocycle-split", params))
    assert rec["outputs"]["residual_all_zero"] is True
    params_g = dict(params, cocycle={"kind": "coboundary", "g": g})
    rec2, _ = run(cfg("cocycle-split", params_g))
    out, out2 = plain(rec)["outputs"], plain(rec2)["outputs"]
    assert out["kappa_values"] == out2["kappa_values"]
    assert out["g"] == out2["g"]


# ---------------------------------------------------------------------------
# cocycle values from configs, and the split's exit codes

SPLIT_PARAMS = {"y1": [[2, 1]], "y2": [[3, 1]], "z": [3], "k": 1}


def _split_outputs(tmp_path, command, params, name="r.json"):
    path = _write(tmp_path, name + ".cfg", cfg(command, params, seed=11))
    out = tmp_path / name
    assert main([command, "--config", path, "--out", str(out)]) == 0
    return json.loads(out.read_text())["outputs"]


def test_values_beyond_int64_reduce_mod_z(tmp_path):
    # Z3 x Z5 is coprime to |Y1| = 2; the first point's value is given unreduced
    params = dict(SPLIT_PARAMS, z=[3, 5])
    big = [[2**70, -1]] + [[0, 0]] * 5
    reduced = [[2**70 % 3, -1 % 5]] + [[0, 0]] * 5
    for command in ("avg-split", "cocycle-split"):
        a = _split_outputs(tmp_path, command, dict(params, cocycle={"kind": "coboundary", "g": big}))
        b = _split_outputs(tmp_path, command, dict(params, cocycle={"kind": "coboundary", "g": reduced}), "s.json")
        assert a == b


def test_table_values_beyond_int64_reduce_mod_z(tmp_path):
    values = _split_outputs(tmp_path, "avg-split", dict(SPLIT_PARAMS, cocycle={"kind": "random"}))["e_values"]
    shifted = [[v + (i % 3 - 1) * 3 * 2**80] for i, (v,) in enumerate(values)]
    a = _split_outputs(tmp_path, "avg-split", dict(SPLIT_PARAMS, cocycle={"kind": "table", "values": shifted}))
    assert a["e_values"] == values


@pytest.mark.parametrize(
    "g",
    [
        [[True]] + [[0]] * 5,
        [[2**70]] + [[0.0]] + [[0]] * 4,
        [[1.5]] + [[0]] * 5,
        [[0, 0]] + [[0]] * 5,
        [[]] + [[0]] * 5,
        [[0]] * 5,
        [[0]] * 5 + [0],
        {"0": [0]},
    ],
)
def test_bad_point_values_exit_2(tmp_path, g):
    params = dict(SPLIT_PARAMS, cocycle={"kind": "coboundary", "g": g})
    path = _write(tmp_path, "c.json", cfg("cocycle-split", params))
    assert main(["cocycle-split", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def _random_table(rng, count):
    return {"kind": "table", "values": [[rng.randrange(3)] for _ in range(count)]}


@pytest.mark.parametrize(
    "y1, cubes",
    [([[2, 1]], 216), ([[3, 1]], 729)],  # |Y1| = 3 also breaks coprimality with Z3
)
def test_split_of_non_cocycle_table_exit_2(tmp_path, y1, cubes):
    params = dict(SPLIT_PARAMS, y1=y1, cocycle=_random_table(random.Random(cubes), cubes))
    path = _write(tmp_path, "c.json", cfg("cocycle-split", params))
    assert main(["cocycle-split", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def test_split_with_a_bad_average_exit_4(tmp_path, monkeypatch):
    import gowerslab.nilcube as nilcube

    average = nilcube._average
    monkeypatch.setattr(nilcube, "_average", lambda *a: (average(*a) + 1) % 3)
    path = _write(tmp_path, "c.json", cfg("cocycle-split", dict(SPLIT_PARAMS, cocycle={"kind": "random"}), seed=2))
    assert main(["cocycle-split", "--config", path, "--out", str(tmp_path / "r.json")]) == 4
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# the record emitter: json.dumps(indent=2, sort_keys=True) byte for byte

ONE_PER_COMMAND = [
    cfg("norm", {"group": [6], "order": 3, "function": {"kind": "random_unimodular"}}, seed=1),
    cfg("cutnorm", {"group": [2, 3], "d": 1, "function": {"kind": "random_bounded"}}, seed=4),
    cfg("boxnorm", {"group": [2, 2, 2, 2], "split": 2, "function": {"kind": "bilinear", "l": 2}}),
    cfg("complement", {"group": [3, 27], "generators": [[1, 3]]}),
    cfg("shrink", {"group": [3, 27], "generators": [[1, 0], [0, 3]]}),
    cfg("crosssection", {"domain": [9], "codomain": [3], "matrix": [[1]]}),
    cfg("project", {k: v for k, v in OBSTRUCT_PARAMS.items() if k != "function"}),
    cfg("obstruct", OBSTRUCT_PARAMS, seed=5),
    # D1(Z2) x D1(Z5) at k = 2: 10,000 cubes
    cfg("avg-split", {"y1": [[2, 1]], "y2": [[5, 1]], "z": [5], "k": 2, "cocycle": {"kind": "random"}}, seed=3),
    cfg("cocycle-split", dict(SPLIT_PARAMS, cocycle={"kind": "random"}), seed=9),
    cfg("morphisms", {"x": [[2, 1]], "y": [[2, 1], [2, 1]]}),
    cfg("decompose", {"group": [12, 18]}),
]


def test_one_config_per_command_covers_every_command():
    from gowerslab.cli import COMMANDS

    assert sorted(c["command"] for c in ONE_PER_COMMAND) == sorted(COMMANDS)


@pytest.mark.parametrize("config", ONE_PER_COMMAND, ids=lambda c: c["command"])
def test_record_file_is_the_indented_sorted_json(tmp_path, config):
    command = config["command"]
    path = _write(tmp_path, "c.json", config)
    out = tmp_path / "r.json"
    assert main([command, "--config", path, "--out", str(out), "--csv"]) == 0
    text = out.read_text()
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    # the csv rows are written as before: one per norm value, from the record's fields
    norm_rows = {
        "norm": ("gowers", 3, "value"),
        "cutnorm": ("cut", 1, "value"),
        "boxnorm": ("box4", 2, "value"),
        "obstruct": ("obstruction", record["inputs"].get("order"), "norm"),
    }
    lines = ["instance_id,kind,k,value,runtime_ms"]
    if command in norm_rows:
        kind, k, field = norm_rows[command]
        value = record["outputs"][field]
        lines.append(f"{record['config_digest'][:12]},{kind},{k},{value!r},{record['runtime_ms']:.3f}")
    assert (tmp_path / "r.json.csv").read_text() == "\n".join(lines) + "\n"
    if command == "avg-split":
        assert record["outputs"]["cube_count"] == 10_000
    if command == "morphisms":
        assert record["outputs"]["count"] > 0


def _json_dumps(tree):
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


def _outcome(dumps, tree):
    try:
        return dumps(tree)
    except ValueError:
        return ValueError


_TEXT = st.text() | st.sampled_from(["", "\x00", "\x1f\x7f", "é", " ", "😀", "\ud800", '"\\/'])
_INTS = st.integers() | st.integers(-(2**100), 2**100) | st.sampled_from([2**100, -(2**100), 2**63, -(2**63) - 1])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300])
_SCALAR = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT


@st.composite
def _int_rows(draw, extra=st.nothing()):
    """A table of equal-length int rows, sometimes with one cell swapped for ``extra``."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_INTS, min_size=width, max_size=width), min_size=1, max_size=6))
    if width and draw(st.booleans()):
        cell = draw(extra | st.booleans())
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = cell
    return rows


def _trees(scalars):
    return st.recursive(
        scalars | _int_rows(),
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=5),
        max_leaves=40,
    )


@settings(max_examples=300, deadline=None)
@given(_trees(_SCALAR))
def test_emitter_matches_json_dumps(tree):
    assert _dumps(tree) == _json_dumps(tree)


_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(_trees(_SCALAR | _ANY_FLOAT) | _int_rows(extra=_ANY_FLOAT))
def test_emitter_refuses_what_json_dumps_refuses(tree):
    assert _outcome(_dumps, tree) == _outcome(_json_dumps, tree)


@pytest.mark.parametrize(
    "tree",
    [math.nan, [1.0, math.inf], {"a": {"b": [-math.inf]}}, [[1, 2], [3, math.nan]], {"k": (math.nan,)}],
)
def test_emitter_refuses_nan_and_infinity(tree):
    with pytest.raises(ValueError):
        _dumps(tree)


def test_emitter_writes_non_string_keys_as_json_does():
    for tree in ({1: "a", 2: [True]}, {2.5: None, -1.0: 0}, {None: 1}, {True: 1, False: 0}):
        assert _dumps(tree) == _json_dumps(tree)


@st.composite
def _int_nests(draw):
    """Nests of lists of depth 1-4, rectangular tables of ints until up to two
    changes make a list ragged or put a bool, float, large int or empty list
    in a cell; sometimes below a key, so indented."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(_INTS)

    tree, lists = build(shape), []

    def walk(node):
        if isinstance(node, list):
            lists.append(node)
            for x in node:
                walk(x)

    walk(tree)
    odd = st.booleans() | _FLOATS | st.sampled_from([2**63, -(2**63) - 1, 2**100]) | st.just([])
    for _ in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(lists))
        change = draw(st.sampled_from(["pop", "append", "cell"]))
        if change == "append":
            node.append(draw(_INTS | odd))
        elif node and change == "pop":
            node.pop()
        elif node:
            node[draw(st.integers(0, len(node) - 1))] = draw(odd)
    return {"k": [tree]} if draw(st.booleans()) else tree


_ARRAY_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308]
)


@st.composite
def _arrays(draw):
    """An int64 or float64 array of 1-4 dimensions, some of size 0, below 1-3 keys;
    a quarter of the float arrays of size > 0 hold one NaN or infinity."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    shape = hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3)
    elements = st.integers(-(2**63), 2**63 - 1) if dtype is np.int64 else _ARRAY_FLOATS
    a = draw(hnp.arrays(dtype, shape, elements=elements))
    if dtype is np.float64 and a.size and draw(st.integers(0, 3)) == 0:
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    tree = a
    for _ in range(draw(st.integers(1, 3))):
        tree = {"k": tree, "z": 0}
    return tree


@settings(max_examples=300, deadline=None)
@given(_int_nests() | _arrays())
def test_emitter_writes_int_tables_of_any_depth_as_json_does(tree):
    assert _outcome(_dumps, tree) == _outcome(_json_dumps, plain(tree))


def test_atomic_write_leaves_the_old_record_when_a_write_fails(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    write, calls = os.write, []

    def short_writes(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(cli.os, "write", short_writes)
    cli._atomic_write(str(out), "old record\n" * 3)
    assert out.read_text() == "old record\n" * 3 and len(calls) == 5
    assert stat.S_IMODE(out.stat().st_mode) == 0o600

    def failing(fd, data):
        if len(calls) == 7:
            raise OSError(errno.ENOSPC, "No space left on device")
        return short_writes(fd, data)

    monkeypatch.setattr(cli.os, "write", failing)
    with pytest.raises(OSError, match="No space"):
        cli._atomic_write(str(out), "new record\n" * 3)
    monkeypatch.undo()
    assert out.read_text() == "old record\n" * 3
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_atomic_write_steps_over_a_stale_temporary_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_tmp_numbers", itertools.count())
    out = tmp_path / "r.json"
    stale = tmp_path / f"r.json.{os.getpid()}.0.tmp"
    stale.write_text("stale")
    cli._atomic_write(str(out), "record\n")
    assert out.read_text() == "record\n" and stale.read_text() == "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["r.json", stale.name])
