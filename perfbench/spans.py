"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function to a wrapper in every
``gowerslab`` module that holds it (its own module, and ``gowerslab.cli``
and the others that import the name directly), and replaces the
``Subgroup.from_generators`` classmethod, the
``SurjectionDecomposition.verify`` method and the ``CubeSet.members``
cached property the same way.  A span records its name, start, end and
parent span; spans stay in memory until ``write`` is called.  Self time is
a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, function name, module, attribute) of every traced module-level function
FUNCTIONS = [
    ("cli", "main", "gowerslab.cli", "main"),
    ("groups", "find_complement", "gowerslab.groups", "find_complement"),
    ("groups", "verify_complement", "gowerslab.groups", "verify_complement"),
    ("groups", "quotient", "gowerslab.groups", "quotient"),
    ("groups", "smith_normal_form", "gowerslab.groups", "smith_normal_form"),
    ("groups", "kernel", "gowerslab.groups", "kernel"),
    ("groups", "image", "gowerslab.groups", "image"),
    ("groups", "complemented_hull", "gowerslab.groups", "complemented_hull"),
    ("groups", "complemented_enlarge", "gowerslab.groups", "complemented_enlarge"),
    ("groups", "complemented_shrink", "gowerslab.groups", "complemented_shrink"),
    ("groups", "mtorsion_complemented_shrink", "gowerslab.groups", "mtorsion_complemented_shrink"),
    ("groups", "primary_decompose", "gowerslab.groups", "primary_decompose"),
    ("polymaps", "degree", "gowerslab.polymaps", "degree"),
    ("polymaps", "polynomial_cross_section", "gowerslab.polymaps", "polynomial_cross_section"),
    ("polymaps", "decompose_surjection", "gowerslab.polymaps", "decompose_surjection"),
    ("harmonics", "gowers_norm", "gowerslab.harmonics", "gowers_norm"),
    ("harmonics", "gowers_norm_exact", "gowerslab.harmonics", "gowers_norm_exact"),
    ("harmonics", "box_norm_4cycle", "gowerslab.harmonics", "box_norm_4cycle"),
    ("harmonics", "cut_norm_lower", "gowerslab.harmonics", "cut_norm_lower"),
    ("harmonics", "project_phase", "gowerslab.harmonics", "project_phase"),
    ("harmonics", "obstruction_check", "gowerslab.harmonics", "obstruction_check"),
    ("nilcube", "is_cocycle", "gowerslab.nilcube", "is_cocycle"),
    ("nilcube", "coboundary", "gowerslab.nilcube", "coboundary"),
    ("nilcube", "factor_average", "gowerslab.nilcube", "factor_average"),
    ("nilcube", "rooted_factor_average", "gowerslab.nilcube", "rooted_factor_average"),
    ("nilcube", "split_cocycle", "gowerslab.nilcube", "split_cocycle"),
    ("nilcube", "enumerate_morphisms", "gowerslab.nilcube", "enumerate_morphisms"),
    ("instances", "random_cocycle", "gowerslab.instances", "random_cocycle"),
    ("instances", "random_functions", "gowerslab.instances", "random_unimodular_function"),
    ("instances", "random_functions", "gowerslab.instances", "random_bounded_function"),
]
SPAN_NAMES = sorted(
    {f"{layer}.{name}" for layer, name, _, _ in FUNCTIONS}
    | {"groups.from_generators", "polymaps.decomposition_verify", "nilcube.cube_members"}
)
COUNTERS = (
    "cli.record_bytes",
    "groups.from_generators.elements",
    "groups.find_complement.closures",
    "groups.smith_normal_form.failed",
    "nilcube.cube_members.cubes",
    "nilcube.is_morphism.calls",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._open: Counter = Counter()
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                dur = end - frame[2]
                tracer.spans[sid] = (sid, parent, name, frame[2], end)
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += dur
                if not ok and name == "groups.smith_normal_form":
                    tracer.counters["groups.smith_normal_form.failed"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_subgroup(self, sub):
        self.counters["groups.from_generators.elements"] += len(sub.elements)
        if self._open["groups.find_complement"]:
            self.counters["groups.find_complement.closures"] += 1

    def _on_cubes(self, members):
        self.counters["nilcube.cube_members.cubes"] += len(members)

    def count(self, name, n=1):
        if self.active:
            self.counters[name] += n

    # -- installing ----------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "gowerslab" or modname.startswith("gowerslab."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def _replace(self, cls, attr, new):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        import gowerslab.cli  # noqa: F401  (imports every layer)
        from gowerslab.groups import Subgroup
        from gowerslab.nilcube import CubeSet
        from gowerslab.polymaps import SurjectionDecomposition

        for layer, name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self.wrap(f"{layer}.{name}", orig))
        is_morphism = sys.modules["gowerslab.nilcube"].is_morphism

        @functools.wraps(is_morphism)
        def counted(*args, **kwargs):
            self.count("nilcube.is_morphism.calls")
            return is_morphism(*args, **kwargs)

        self._rebind(is_morphism, counted)
        fg = Subgroup.__dict__["from_generators"].__func__
        self._replace(Subgroup, "from_generators", classmethod(self.wrap("groups.from_generators", fg, self._on_subgroup)))
        verify = SurjectionDecomposition.__dict__["verify"]
        self._replace(SurjectionDecomposition, "verify", self.wrap("polymaps.decomposition_verify", verify))
        members = functools.cached_property(
            self.wrap("nilcube.cube_members", CubeSet.__dict__["members"].func, self._on_cubes)
        )
        members.__set_name__(CubeSet, "members")
        self._replace(CubeSet, "members", members)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Calls, self seconds and counters per round of the operation mix."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        for name in COUNTERS:
            out[name] = (self.counters[name] / rounds, "bytes" if name == "cli.record_bytes" else "count")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
