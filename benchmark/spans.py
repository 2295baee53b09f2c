"""Span-and-count recorders around archfactor's public functions.

The traced run replaces a function by a recorder under the name the
*calling* module looks it up by (``archfactor.verify.theta_spectrum``,
``archfactor.regdet.multiply``, ...), so every call from that module
goes through the recorder and no file under ``src/`` changes.
:meth:`Tracer.restore` puts the originals back.

A recorder keeps, per function, the number of calls, the total time and
the self time (total minus the time of recorded calls made inside it).
Calls to the stage functions are also kept as spans (id, parent id,
name, start, end) in memory, written out by :meth:`Tracer.write` when
the run ends.  The hot leaves ``multiply`` and ``power`` are counted and
timed but not kept as spans (a d = 80 verify makes thousands of them),
and ``deligne_dim`` is only counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (calling module, function name); the span is named after the module
# that defines the function, e.g. "gamma.multiply".
STAGES = (
    ("verify", "verify_theorem"),
    ("verify", "validate"),
    ("verify", "completed_alternating_product"),
    ("verify", "theta_spectrum"),
    ("verify", "weight_spectrum"),
    ("verify", "regdet_measure"),
    ("verify", "divisor_of"),
    ("verify", "compare_divisors"),
    ("verify", "serre_factor"),
    ("verify", "evaluate_log"),
    ("cyclic", "weight_spectrum"),
    ("hodge", "from_json_dict"),
    ("regdet", "regdet_progression"),
    ("regdet", "hurwitz_zeta_deriv0"),
    ("gamma", "evaluate_log"),
    ("cli", "main"),
    ("cli", "from_json_dict"),
    ("cli", "validate"),
    ("cli", "verify_theorem"),
    ("cli", "theta_spectrum"),
    ("cli", "weight_spectrum"),
    ("cli", "completed_alternating_product"),
    ("cli", "serre_factor"),
    ("cli", "evaluate_log"),
    ("cli", "regdet_progression"),
    ("cli", "hurwitz_zeta_deriv0"),
)
LEAVES = (
    ("verify", "power"),
    ("regdet", "multiply"),
    ("regdet", "power"),
    ("factors", "multiply"),
    ("factors", "power"),
)
# Only counted: a sparse round makes a million of these.
COUNTED = (
    ("cyclic", "deligne_dim"),
)
MAX_SPANS = 50_000


def _name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _terms(expr) -> int:
    return len(expr.gr) + len(expr.gc) + len(expr.lin)


class Tracer:
    """Recorders for one run; create, :meth:`install`, run, :meth:`restore`."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._stack = []  # [span id, child ns] per open call
        self._next_id = 1
        self._patched = []
        self._last_theta = None

    def install(self) -> None:
        for table, wrap in ((STAGES, self._span), (LEAVES, self._timed),
                            (COUNTED, self._counted)):
            for caller, attr in table:
                module = sys.modules.get(f"archfactor.{caller}")
                if module is None or not hasattr(module, attr):
                    continue
                fn = getattr(module, attr)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrap(fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _span(self, fn):
        return self._wrap(fn, True)

    def _timed(self, fn):
        return self._wrap(fn, False)

    def _counted(self, fn):
        name = _name(fn)
        calls = self.calls

        def counter(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        return counter

    def _wrap(self, fn, keep_span: bool):
        name = _name(fn)
        after = getattr(self, "_after_" + fn.__name__, None)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def recorder(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, name, t0, t1))
                    else:
                        self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        recorder.__wrapped__ = fn
        return recorder

    # result hooks: counts measured where the work happens
    def _after_theta_spectrum(self, args, measure):
        self._last_theta = measure
        self.counts["cyclic.progressions"] += len(measure.even) + len(measure.odd)

    def _after_completed_alternating_product(self, args, expr):
        self.counts["gamma.expr_terms"] += _terms(expr)

    def _after_regdet_measure(self, args, dets):
        # the RHS is the determinant ratio of the full theta spectrum
        if args and args[0] is self._last_theta:
            self.counts["gamma.expr_terms"] += _terms(dets.ratio)
            self._last_theta = None

    def _after_divisor_of(self, args, divisor):
        self.counts["gamma.divisor_points"] += divisor.hi - divisor.lo + 1

    def reset(self) -> None:
        """Forget every call recorded so far (the recorders stay)."""
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.counts.clear()
        self.spans.clear()
        self.dropped = 0

    def write(self, path, meta: dict) -> None:
        """Write the spans, counters and ``meta`` as one JSON document."""
        doc = dict(meta, calls=self.calls, total_ns=self.total_ns,
                   self_ns=self.self_ns, counts=self.counts)
        doc["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        doc["spans_dropped"] = self.dropped
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer figures of a traced run, per round of the workload
    (times in ms, counts exact), except the per-call ``_us`` means."""
    calls, total, own, counts = (tracer.calls, tracer.total_ns,
                                 tracer.self_ns, tracer.counts)

    def ms(name):
        return total.get(name, 0) / 1e6 / rounds

    def per_round(n):
        return n / rounds

    def us_per_call(name):
        n = calls.get(name, 0)
        return total.get(name, 0) / 1e3 / n if n else 0.0

    return {
        "cyclic.theta_spectrum_ms": ms("cyclic.theta_spectrum"),
        "cyclic.weight_spectrum_ms": ms("cyclic.weight_spectrum"),
        "cyclic.weight_spectrum_calls": per_round(calls["cyclic.weight_spectrum"]),
        "cyclic.progressions": per_round(counts["cyclic.progressions"]),
        "deligne.deligne_dim_calls": per_round(calls["deligne.deligne_dim"]),
        "regdet.regdet_measure_ms": ms("regdet.regdet_measure"),
        "gamma.multiply_calls": per_round(calls["gamma.multiply"]),
        "gamma.multiply_ms": ms("gamma.multiply"),
        "gamma.expr_terms": per_round(counts["gamma.expr_terms"]),
        "gamma.divisor_of_ms": ms("gamma.divisor_of"),
        "gamma.divisor_points": per_round(counts["gamma.divisor_points"]),
        "verify.compare_divisors_ms": ms("verify.compare_divisors"),
        "verify.verify_theorem_self_ms":
            own.get("verify.verify_theorem", 0) / 1e6 / rounds,
        "regdet.hurwitz_zeta_deriv0_us": us_per_call("regdet.hurwitz_zeta_deriv0"),
        "regdet.hurwitz_zeta_deriv0_calls":
            per_round(calls["regdet.hurwitz_zeta_deriv0"]),
        "gamma.evaluate_log_us": us_per_call("gamma.evaluate_log"),
        "gamma.evaluate_log_calls": per_round(calls["gamma.evaluate_log"]),
        "hodge.validate_ms": ms("hodge.validate"),
    }
