"""Benchmark of gowerslab: certified records per second and record latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

One operation is one in-process call ``gowerslab.cli.main([command,
"--config", CFG, "--out", OUT])``, or one direct call of
``gowers_norm_exact`` or ``smith_normal_form``, which no command exposes.
One client runs whole rounds of a workload's operations in a closed loop
until the run length has passed; only the calls are timed, and every result
is then checked against ``checks``.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  ``--smoke`` runs one short round of every workload, untraced
and traced, with every check on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def _clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_to_quietest_cpu() -> None:
    """Pin this process, and the set-up processes it starts, to its fastest CPU.

    On a shared host the CPUs of one machine run the same code at speeds that
    differ by up to half, as neighbours load them, and an unpinned process
    moves between them.  A short probe on each allowed CPU picks the fastest.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            total = 0
            for i in range(200_000):
                total += i
            best[cpu] = min(best.get(cpu, float("inf")), time.perf_counter() - t0)
    os.sched_setaffinity(0, {min(best, key=best.get)})


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_library():
    """Import the library from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "gowerslab" / "__init__.py").is_file():
        print(f"perfbench: no library source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import gowerslab
    import gowerslab.cli  # noqa: F401  (imports every layer, numpy included)

    if Path(gowerslab.__file__).resolve().parent != (src / "gowerslab").resolve():
        print(f"perfbench: imported {gowerslab.__file__}, not the checkout's library", file=sys.stderr)
        sys.exit(2)


class Runner:
    """Prepared operations of one workload and the loop that times them."""

    def __init__(self, workload, workdir: Path):
        from fractions import Fraction

        import gowerslab.cli as cli
        import gowerslab.groups as groups
        import gowerslab.harmonics as harmonics

        self.workload = workload
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = None

        def prepare(i, op, tag):
            if op.command == "smith_normal_form":
                return lambda: groups.smith_normal_form(op.args["matrix"])
            if op.command == "gowers_norm_exact":
                G = groups.FinAbGroup(op.args["orders"])
                f = harmonics.GroupFunction.from_phases(G, [Fraction(a, b) for a, b in op.args["phases"]])
                return lambda: harmonics.gowers_norm_exact(f, op.args["order"])
            cfg = workdir / f"{tag}{i}.json"
            cfg.write_text(json.dumps(op.config))
            argv = [op.command, "--config", str(cfg), "--out", str(workdir / f"{tag}{i}.out.json")]
            return lambda: cli.main(argv)

        self.calls = [prepare(i, op, "op") for i, op in enumerate(workload.ops)]
        self.outs = [workdir / f"op{i}.out.json" for i in range(len(workload.ops))]
        self.warm_calls = [prepare(i, op, "warm") for i, op in enumerate(workload.warmups)]
        signal.signal(signal.SIGALRM, _on_alarm)

    def warm_up(self) -> None:
        for op, call in zip(self.workload.warmups, self.warm_calls):
            result = call()
            if op.config is not None and result != 0:
                raise RuntimeError(f"warm-up {op.label} exited with {result}")

    def _attempt(self, i):
        """Run operation i under its time limit: (seconds, result or None, timed out)."""
        op = self.workload.ops[i]
        try:
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
            t0 = time.perf_counter()
            try:
                result = self.calls[i]()
            finally:
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return dt, None, True
        except Exception as e:  # a library error is a failed operation, not a crash
            print(f"perfbench: {op.label} raised {e!r}", file=sys.stderr)
            return dt, None, False
        return dt, result, False

    def _verify(self, i, result):
        """The checked record of operation i, or None when it failed."""
        import checks

        op = self.workload.ops[i]
        if op.config is not None:
            if result != 0:
                print(f"perfbench: {op.label} exited with {result}", file=sys.stderr)
                return None
            text = self.outs[i].read_text()
            if self.tracer is not None:
                self.tracer.counters["cli.record_bytes"] += len(text.encode())
            result = json.loads(text)
        try:
            checks.check(op, result)
        except checks.CheckFailed as e:
            print(f"perfbench: {op.label} failed a check: {e}", file=sys.stderr)
            return None
        return result

    def run_round(self, stats) -> None:
        import checks

        ops = self.workload.ops
        records = []
        outcomes = []
        for i in range(len(ops)):
            dt, result, timed_out = self._attempt(i)
            tracing = self.tracer is not None and self.tracer.active
            if tracing:
                self.tracer.active = False
            rec = None if result is None else self._verify(i, result)
            if tracing:
                self.tracer.active = True
            stats["latencies"].append(dt)
            records.append(rec)
            outcomes.append(timed_out)
        for i in checks.check_round(ops, records):
            print(f"perfbench: {ops[i].label} breaks U^k <= U^(k+1)", file=sys.stderr)
            records[i] = None
        for op, rec, timed_out in zip(ops, records, outcomes):
            stats["attempted"] += 1
            if rec is None:
                stats["failed"] += 1
                if not (op.expect_fail and timed_out):
                    stats["correct"] = False
        stats["rounds"] += 1

    def measure(self, seconds: float, min_ops: int = MIN_OPS) -> dict:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` operations were attempted."""
        stats = new_stats()
        t0 = time.perf_counter()
        while stats["rounds"] == 0 or stats["attempted"] < min_ops or time.perf_counter() - t0 < seconds:
            self.run_round(stats)
        stats["records_per_s"] = (stats["attempted"] - stats["failed"]) / sum(stats["latencies"])
        return stats

    def measure_traced(self, seconds: float, min_ops: int = MIN_OPS):
        """``measure`` with every traced function rebound; returns (tracer, stats)."""
        import spans

        self.tracer = spans.Tracer()
        self.tracer.install()
        try:
            return self.tracer, self.measure(seconds, min_ops)
        finally:
            self.tracer.uninstall()


def new_stats() -> dict:
    return {"latencies": [], "attempted": 0, "failed": 0, "rounds": 0, "correct": True}


def _workdir(name: str) -> Path:
    return WORK / f"{name}-{os.getpid()}"


def setup_only(name: str, seed: int) -> None:
    """Generate inputs and warm up (after the imports), then print the monotonic clock."""
    import workloads

    workdir = _workdir(name)
    try:
        Runner(workloads.build(name, seed), workdir).warm_up()
        print(repr(_clock()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to the first timed operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=170,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def _result(stats_list, metrics) -> dict:
    return {
        "correct": all(s["correct"] for s in stats_list),
        "attempted": sum(s["attempted"] for s in stats_list),
        "failed": sum(s["failed"] for s in stats_list),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup_s = None if trace else measure_setup(name, seed)
    workdir = _workdir(name)
    try:
        runner = Runner(workloads.build(name, seed), workdir)
        runner.warm_up()
        if not trace:
            stats = runner.measure(seconds)
            lat = stats["latencies"]
            metrics = {
                "setup_s": (setup_s, "s"),
                "records_per_s": (stats["records_per_s"], "1/s"),
                "record_ms_p50": (statistics.median(lat) * 1000, "ms"),
                "record_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            return _result([stats], metrics)
        plain = runner.measure(seconds / 2)
        tracer, traced = runner.measure_traced(seconds / 2)
        tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
        metrics = tracer.metrics(traced["rounds"])
        slowdown = plain["records_per_s"] / traced["records_per_s"]
        metrics["trace.slowdown"] = (slowdown, "ratio")
        print(
            f"records_per_s untraced {plain['records_per_s']:.3f} traced {traced['records_per_s']:.3f} "
            f"(tracing overhead {100 * (slowdown - 1):.1f}%)"
        )
        return _result([plain, traced], metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(names) -> bool:
    """One short round of each workload, untraced then traced, every check on."""
    import workloads

    ok = True
    for name in names:
        workdir = _workdir(name)
        try:
            runner = Runner(workloads.build(name, 0, smoke=True), workdir)
            runner.warm_up()
            plain = runner.measure(0, min_ops=1)
            tracer, traced = runner.measure_traced(0, min_ops=1)
            res = _result([plain, traced], tracer.metrics(1))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        ok = ok and res["correct"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short run of every workload with all checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_library()
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    if args.smoke:
        return 0 if smoke([args.workload] if args.workload else workloads.WORKLOADS) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    pin_to_quietest_cpu()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
