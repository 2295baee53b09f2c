#!/usr/bin/env python3
"""Benchmark of archfactor on one workload.

    python3 benchmark/run.py --workload diamonds --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``diamonds`` and ``sparse`` run
``verify_theorem`` in-process on full and sparse Hodge data, ``oracle``
cross-checks regularized determinants against the Euler-Maclaurin
series, ``cli`` runs ``python -m archfactor.cli`` over a fixed mix of
commands, one invocation after the other (a closed loop, one client).

A run repeats whole rounds of the workload's operations until
``--seconds`` have passed and at least 100 operations were timed.  Every
output is checked against the references in ``reference.py``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0``
and the per-layer metrics with ``--trace 1``.  The whole result, and with
``--trace 1`` the spans, are also written under ``benchmark/out/``.

The package is imported from ``src/`` next to this directory; without
it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import reference
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100          # op_ms_p90 needs at least 100 timed operations
SETUP_REPEATS = 11     # setup_s is the median of this many fresh set-ups,
                       # spread evenly over the run
PROBE_REPEATS = 5      # interpreter and import probes of the traced run
SUBPROCESS_TIMEOUT = 120
SPECTRUM_DEPTH = 20    # head rows the spectrum command prints by default

# One set-up of an in-process workload in a fresh interpreter, so that
# it pays for every module the package imports: the documents are read
# before the clock starts, then the package is imported and they are
# turned into HodgeData.  Prints the seconds taken.
SETUP_CHILD = """\
import json, sys, time
cases = json.load(sys.stdin)
t0 = time.perf_counter()
import archfactor
data = [archfactor.hodge.preset(preset) if preset
        else archfactor.hodge.from_json_dict(doc) for preset, doc in cases]
print(repr(time.perf_counter() - t0))
"""


class Tally:
    """Outcomes and times of the timed operations of one run."""

    def __init__(self, round_size: int):
        self.round_size = round_size
        self.attempted = 0
        self.failed = 0
        self.times = []
        self.heavy_times = []
        self.problems = []

    def record(self, label: str, seconds: float, verdict_ok: bool,
               problems: list, known_fault: bool = False,
               heaviest: bool = False) -> None:
        """``verdict_ok`` is the program's own verdict on the operation
        and ``problems`` are its disagreements with the references.  An
        operation whose verdict is wrong is failed; unless it is a known
        fault, it also makes the run incorrect, as does any problem."""
        self.attempted += 1
        self.times.append(seconds)
        if heaviest:
            self.heavy_times.append(seconds)
        if not verdict_ok:
            self.failed += 1
            if not known_fault:
                self.problems.append(f"{label}: wrong verdict")
        self.problems.extend(f"{label}: {p}" for p in problems)

    def end_to_end(self, setup_times: list, rss_kb: float) -> dict:
        """The machine's speed drifts between a fast and a slow state
        that last seconds to minutes.  A quantile taken over the whole
        run jumps with whichever state held most of it, so the median
        and the 90th percentile are taken per round and averaged over
        the rounds, and the heaviest input's times are averaged: all
        then move in proportion to the time spent in each state."""
        times, size = self.times, self.round_size
        rounds = [times[i:i + size] for i in range(0, len(times), size)]
        return {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(times) / math.fsum(times),
            "op_ms_p50": statistics.fmean(statistics.median(r)
                                          for r in rounds) * 1e3,
            "op_ms_p90": statistics.fmean(statistics.quantiles(r, n=10)[8]
                                          for r in rounds) * 1e3,
            "largest_op_ms": statistics.fmean(self.heavy_times) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }


def timed_rounds(run_round, seconds: float, set_up) -> tuple:
    """Call ``run_round()`` (which returns the number of operations it
    timed) until ``seconds`` have passed and MIN_OPS operations were
    timed.  ``set_up()`` (which returns the seconds of one set-up) is
    called SETUP_REPEATS times: once before the first round, the others
    between rounds, spread evenly over the run, so that the set-up
    times sample the same stretch of the machine as the operations.
    Returns (number of whole rounds, set-up seconds)."""
    setup_times = [set_up()]
    rounds = ops = 0
    start = time.perf_counter()
    while rounds == 0 or ops < MIN_OPS or time.perf_counter() - start < seconds:
        ops += run_round()
        rounds += 1
        # all are due once the run has lasted ``seconds``
        while (len(setup_times) < SETUP_REPEATS and time.perf_counter() - start
               >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(set_up())
    return rounds, setup_times


def import_archfactor(*submodules: str):
    """Import archfactor (and ``submodules`` of it) afresh from src/,
    dropping any archfactor modules already loaded, and make sure it is
    the copy in src/."""
    for mod in [m for m in sys.modules
                if m == "archfactor" or m.startswith("archfactor.")]:
        del sys.modules[mod]
    pkg = importlib.import_module("archfactor")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: archfactor imported from {pkg.__file__}, "
                         f"not from {SRC}")
    for name in submodules:
        importlib.import_module(f"archfactor.{name}")
    return pkg


def self_rss_kb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --------------------------------------------------------------------------
# in-process workloads


def fresh_setup(cases):
    """A callable that does the set-up of an in-process workload in a
    fresh interpreter (SETUP_CHILD) and returns its seconds."""
    stdin = json.dumps([[c.preset, c.doc] for c in cases])
    env = cli_env()

    def set_up() -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=stdin,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              check=True, timeout=SUBPROCESS_TIMEOUT)
        return float(proc.stdout)

    return set_up


def setup_package(cases) -> tuple:
    """(package, HodgeData per case): the set-up of this process, which
    fresh_setup times in fresh interpreters."""
    pkg = import_archfactor()
    data = [pkg.hodge.preset(c.preset) if c.preset
            else pkg.hodge.from_json_dict(c.doc) for c in cases]
    return pkg, data


def verify_round(pkg, cases, data, tally: Tally) -> int:
    clock = time.perf_counter
    for case, item in zip(cases, data):
        t0 = clock()
        report = pkg.verify.verify_theorem(item)
        dt = clock() - t0
        rep = report.to_json_dict()
        tally.record(case.doc["name"], dt, rep["ok"],
                     reference.check_report(case.doc, rep),
                     case.known_fault, case.heaviest)
    return len(cases)


def run_verify_workload(cases, seconds: float, tracer: Tracer | None):
    pkg, data = setup_package(cases)
    extra = {}
    if tracer is not None:
        # one round converts each document once, as set-up does
        tracer.install()
        for case in cases:
            if case.preset is None:
                pkg.hodge.from_json_dict(case.doc)
        extra["hodge.from_json_dict_ms"] = (
            tracer.total_ns["hodge.from_json_dict"] / 1e6)
        tracer.reset()
    tally = Tally(len(cases))
    rounds, setup_times = timed_rounds(
        lambda: verify_round(pkg, cases, data, tally), seconds,
        fresh_setup(cases))
    return tally, rounds, setup_times, self_rss_kb(), extra


def oracle_round(pkg, points, tally: Tally) -> int:
    clock = time.perf_counter
    regdet, gamma = pkg.regdet, pkg.gamma
    progression = pkg.cyclic.Progression
    for first, step, mult, s, heaviest in points:
        t0 = clock()
        expr = regdet.regdet_progression(progression(first, step, None, mult))
        closed, sign = gamma.evaluate_log(expr, s)
        oracle = mult * regdet.hurwitz_zeta_deriv0((s - first) / step,
                                                   2.0 * math.pi / step)
        dt = clock() - t0
        tally.record(f"oracle(first={first}, step={step}, mult={mult}, s={s})",
                     dt, abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle)),
                     reference.check_progression((first, step, mult, s),
                                                 closed, sign, oracle),
                     heaviest=heaviest)
    return len(points)


def run_oracle_workload(points, seconds: float, tracer: Tracer | None):
    pkg, _ = setup_package([])
    if tracer is not None:
        tracer.install()
    tally = Tally(len(points))
    rounds, setup_times = timed_rounds(
        lambda: oracle_round(pkg, points, tally), seconds, fresh_setup([]))
    return tally, rounds, setup_times, self_rss_kb(), {}


# --------------------------------------------------------------------------
# command line workload


def check_cli(op, code: int, out: str, err: str) -> tuple:
    """(verdict_ok, problems) of one command line invocation."""
    if op.kind == "malformed":
        lines = err.splitlines()
        ok = (code == 2 and not out and len(lines) == 1
              and lines[0].startswith("error:"))
        return ok, []
    if code != 0:
        return False, [f"exit {code}: {err.strip()[-200:]}"]
    if op.kind == "verify_text":
        return check_verify_text(op.ref, out)
    doc = json.loads(out)
    if op.kind == "verify_json":
        return doc["ok"], reference.check_report(op.ref, doc)
    problems = []
    if op.kind == "factors":
        s = op.ref["dim"] + 0.5
        for entry in op.ref["weights"]:
            want, scale = reference.weight_log(op.ref, entry, s)
            got, _ = reference.expression_log(doc["weights"][str(entry["w"])], s)
            if abs(got - want) > 1e-11 * (1.0 + scale):
                problems.append(f"weight {entry['w']} at s={s}: {got!r} != {want!r}")
        want, scale = reference.lhs_log(op.ref, s)
        got, _ = reference.expression_log(doc["product"], s)
        if abs(got - want) > 1e-11 * (1.0 + scale):
            problems.append(f"product at s={s}: {got!r} != {want!r}")
    elif op.kind == "spectrum":
        for parity, label in ((0, "even"), (1, "odd")):
            want = reference.spectrum_head(op.ref, parity, SPECTRUM_DEPTH)
            got = {int(m): mult for m, mult in doc["spectrum"][label]["head"].items()}
            if got != want:
                problems.append(f"{label} head {got} != {want}")
    elif op.kind == "eval":
        want, scale = reference.lhs_log(op.ref, doc["s"])
        if doc["sign"] != 1 or abs(doc["log_abs"] - want) > 1e-11 * (1.0 + scale):
            problems.append(f"eval: {doc['log_abs']!r} sign {doc['sign']} "
                            f"!= {want!r}")
    elif op.kind == "regdet":
        problems = reference.check_progression(
            op.ref, doc["at_s"]["log_abs"], doc["at_s"]["sign"], doc["oracle_log"])
    else:
        raise ValueError(f"unknown check {op.kind}")
    return True, problems


def check_verify_text(ref: dict, out: str) -> tuple:
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    constant = float(fields["constant log(LHS/RHS)"].split()[0])
    problems = []
    # printed with 12 significant digits
    if not reference.constant_ok(ref["place"], constant,
                                 1e-9 + 1e-11 * abs(constant)):
        problems.append(f"constant {constant!r} not allowed at a "
                        f"{ref['place']} place")
    return fields.get("verdict") == "ok", problems


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv: list, workdir: Path, env: dict):
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr


def cli_round(ops, workdir: Path, env: dict, tally: Tally) -> int:
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        code, out, err = invoke([sys.executable, "-m", "archfactor.cli", *op.argv],
                                workdir, env)
        dt = clock() - t0
        ok, problems = check_cli(op, code, out, err)
        tally.record(" ".join(op.argv), dt, ok, problems, op.known_fault,
                     op.heaviest)
    return len(ops)


def cli_main_round(pkg, ops, tally: Tally, main_times: list) -> int:
    """The same invocations through an in-process ``cli.main(argv)``."""
    clock = time.perf_counter
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = pkg.cli.main(list(op.argv))
            except Exception:  # the interpreter would print it and exit 1
                traceback.print_exc(file=err)
                code = 1
            dt = clock() - t0
        main_times.append(dt)
        ok, problems = check_cli(op, code, out.getvalue(), err.getvalue())
        tally.record(" ".join(op.argv), dt, ok, problems, op.known_fault,
                     op.heaviest)
    return len(ops)


def run_cli_workload(seed: int, seconds: float, tracer: Tracer | None):
    files, ops = inputs.cli(seed)
    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        env = cli_env()
        first = [sys.executable, "-m", "archfactor.cli", *ops[0].argv]

        def set_up() -> float:
            """One untimed invocation of the round's first command: a
            whole set-up of its own interpreter."""
            t0 = time.perf_counter()
            code, out, err = invoke(first, workdir, env)
            dt = time.perf_counter() - t0
            ok, problems = check_cli(ops[0], code, out, err)
            if not ok or problems:
                raise SystemExit(f"error: set-up invocation failed: {problems} {err}")
            return dt

        tally = Tally(len(ops))
        extra = {}
        if tracer is None:
            rounds, setup_times = timed_rounds(
                lambda: cli_round(ops, workdir, env, tally), seconds, set_up)
        else:
            pkg = import_archfactor("cli")
            tracer.install()
            main_times = []
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                rounds, setup_times = timed_rounds(
                    lambda: cli_main_round(pkg, ops, tally, main_times),
                    seconds, set_up)
            finally:
                os.chdir(cwd)
            extra["cli.main_ms"] = statistics.median(main_times) * 1e3
            extra["hodge.from_json_dict_ms"] = (
                tracer.total_ns["hodge.from_json_dict"] / 1e6 / rounds)
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return tally, rounds, setup_times, self_rss_kb() + children, extra
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --------------------------------------------------------------------------
# start-up probes of the traced run


def startup_probes() -> dict:
    """Median wall time of a bare interpreter start, and the median
    cumulative import time of archfactor.cli reported by -X importtime."""
    env = cli_env()
    bare, imports = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=SUBPROCESS_TIMEOUT)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import archfactor.cli"],
            env=env, capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "archfactor.cli":
                imports.append(int(fields[1]) / 1e3)
    return {"cli.interpreter_ms": statistics.median(bare) * 1e3,
            "cli.import_ms": statistics.median(imports)}


# --------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    try:
        if workload == "diamonds":
            res = run_verify_workload(inputs.diamonds(seed), seconds, tracer)
        elif workload == "sparse":
            res = run_verify_workload(inputs.sparse(seed), seconds, tracer)
        elif workload == "oracle":
            res = run_oracle_workload(inputs.oracle(seed), seconds, tracer)
        else:
            res = run_cli_workload(seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    tally, rounds, setup_times, rss_kb, extra = res
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": rounds,
        "correct": not tally.problems, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems[:20],
        "setup_runs_s": setup_times,
        "end_to_end": tally.end_to_end(setup_times, rss_kb),
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        # a workload that never calls a layer reads 0 for it
        layers = {"cli.main_ms": 0.0, "hodge.from_json_dict_ms": 0.0}
        layers.update(layer_metrics(tracer, rounds))
        layers.update(startup_probes())
        layers.update(extra)
        result["per_layer"] = layers
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed, "rounds": rounds})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("diamonds", "sparse", "oracle", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "archfactor" / "__init__.py").is_file():
        print(f"error: no archfactor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    # the metrics and units BENCHMARK.json declares
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result[kind][m["name"]], "unit": m["unit"]}
               for m in bench[kind]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
