"""Closed-loop question runner, span tracer and metric reduction.

One client asks one question at a time. A question's latency covers only
the calls into the program (input validation included); generating the
inputs, checking the answers and timing the parts of composite calls all
happen outside it. Tracing records a span around every public call the
workload makes: (name, start, end, parent, question id, error).
"""
from __future__ import annotations

import json
import math
import pickle
import signal
import time
import tracemalloc

import numpy as np

from gen import question_rng
from ref import Check


class QuestionTimeout(BaseException):
    """Raised by the per-question alarm; a BaseException so that no handler
    inside the program under test can swallow it."""


def install_question_alarm():
    """Make SIGALRM raise QuestionTimeout in the main thread."""

    def _expire(signum, frame):
        raise QuestionTimeout()

    signal.signal(signal.SIGALRM, _expire)


class NullTracer:
    """Untraced runs: a call is just the call."""

    qid = None
    cycle = 0

    def call(self, name, fn, *args):
        return fn(*args)

    def flush(self):
        pass

    def errored_span(self):
        return None


class Tracer:
    """Spans kept in memory, written out when the run ends.

    `parts` maps a span name to a function that, after the question's timed
    region, re-runs the pieces of that composite public call on the same
    inputs as child spans; `peaks` lists names whose allocation peak is
    measured with tracemalloc in a separate, untimed call. Peaks depend on
    input sizes only, so they are measured in the first cycle (`cycle` is
    set by run_pass), which holds every slot once."""

    def __init__(self, parts=None, peaks=()):
        self.spans = []  # [name, start, end, parent, qid, error]
        self.qid = None
        self.cycle = 0
        self.parts = parts or {}
        self.peak_names = set(peaks)
        self.peak_kb = {}
        self._stack = []
        self._pending = []

    def call(self, name, fn, *args):
        sid = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.qid, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = time.perf_counter()
        try:
            out = fn(*args)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        peak = name in self.peak_names and self.cycle == 0
        if peak or name in self.parts:
            self._pending.append((sid, name, fn, args, out, peak))
        return out

    def flush(self):
        while self._pending:
            sid, name, fn, args, out, peak = self._pending.pop()
            if peak:
                tracemalloc.start()
                fn(*args)
                self.peak_kb.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] / 1024)
                tracemalloc.stop()
            if name in self.parts:
                self._stack.append(sid)
                try:
                    self.parts[name](self, args, out)
                finally:
                    self._stack.pop()

    def self_ms(self) -> dict:
        """Mean self time per call (duration minus child spans), by name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total, count = {}, {}
        for k, (name, t0, t1, _, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (t1 - t0 - child[k])
            count[name] = count.get(name, 0) + 1
        return {name: 1e3 * total[name] / count[name] for name in total}

    def errored_span(self):
        """Name of the innermost span of the current question that raised."""
        for span in reversed(self.spans):
            if span[4] != self.qid:
                break
            if span[5] is not None:
                return span[0]
        return None

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "qid", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Pass:
    """Outcome of asking one workload's questions: latencies, failures,
    accuracy margins and per-function check tallies."""

    def __init__(self):
        self.latencies = []
        self.slots = []  # slot index of each latency
        self.failed = 0
        self.failures = []  # (qid, fn, what), first few kept for the log
        self.margins = {}
        self.counts = {}
        self.fn_checked = {}
        self.fn_failed = {}
        self.module_errors = {}

    def record(self, qid, chk: Check, error_fn=None, error=None):
        if error is not None:
            chk.fail(error_fn or "unknown", error)
        for fn, m in chk.margins.items():
            self.margins[fn] = max(self.margins.get(fn, -math.inf), m)
        for name, k in chk.counts.items():
            self.counts[name] = self.counts.get(name, 0) + k
        for fn in set(chk.checked) | chk.failed_fns:
            self.fn_checked[fn] = self.fn_checked.get(fn, 0) + 1
        for fn in chk.failed_fns:
            self.fn_failed[fn] = self.fn_failed.get(fn, 0) + 1
            module = fn.split(".")[0]
            self.module_errors[module] = self.module_errors.get(module, 0) + 1
        if chk.failures:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend((qid, fn, what) for fn, what in chk.failures[:3])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self) -> dict:
        lat = np.asarray(self.latencies)
        worst = max(self.margins.values(), default=-math.inf)
        return {
            "answer_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "answer_p90_ms": 1e3 * float(np.percentile(lat, 90)),
            "questions_per_s": len(lat) / float(lat.sum()),
            "failed_frac": self.failed / len(lat),
            "worst_margin_log10": worst,
        }


def ask_one(wl, q, tracer, qid):
    """Ask one question under the per-question limit; returns
    (answer or None, latency_s, error_fn, error)."""
    tracer.qid = qid
    answer, error_fn, error = None, None, None
    t0 = t1 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.LIMIT_S)
        t0 = time.perf_counter()
        try:
            answer = wl.ask(q, tracer)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QuestionTimeout:
        error = f"exceeded the {wl.LIMIT_S:g} s question limit"
    except Exception as exc:  # any unexpected exception fails the question
        error = f"raised {type(exc).__name__}: {exc}"
    if error is not None:
        error_fn = tracer.errored_span()
    return answer, t1 - t0, error_fn, error


def run_pass(wl, seed: int, seconds: float, tracer, keep_first=False):
    """Ask whole cycles of the workload's slots, at least one, until
    `seconds` of question time have been spent. Inputs of question i come
    from (seed, workload, i) alone. Returns the Pass and, with keep_first,
    the first correctly answered (question, answer)."""
    p = Pass()
    slots = wl.SLOTS
    first = None
    i = cycles = 0
    while cycles == 0 or sum(p.latencies) < seconds:
        batch = [wl.make(question_rng(seed, wl.INDEX, i + k), slots[(i + k) % len(slots)])
                 for k in range(len(slots))]
        done = []
        tracer.cycle = cycles
        for q in batch:
            answer, latency, error_fn, error = ask_one(wl, q, tracer, i)
            tracer.flush()
            p.latencies.append(latency)
            p.slots.append(i % len(slots))
            done.append((i, q, answer, error_fn, error))
            i += 1
        for qid, q, answer, error_fn, error in done:
            chk = Check()
            if error is None:
                wl.check(q, answer, chk)
            p.record(qid, chk, error_fn, error)
            if keep_first and first is None and not chk.failures:
                first = (q, answer)
        cycles += 1
    return p, first


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def corrupt(value):
    """Perturb every float by 1e-3 (relative and absolute) and flip every
    boolean; JSON text is parsed, corrupted and re-serialised."""
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, float):
        return value * (1 + 1e-3) + 1e-3
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        return value * (1 + 1e-3) + 1e-3
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(corrupt(v) for v in value)
    if isinstance(value, str):
        try:
            return json.dumps(corrupt(json.loads(value)))
        except ValueError:
            return value
    return value


def self_test(wl, seed: int, first) -> list:
    """Two checks, returned as a list of problems (empty when both hold):
    a corrupted answer must be counted in failed_frac, and one seed must
    reproduce byte-identical inputs."""
    problems = []
    q, answer = first
    p = Pass()
    p.latencies.append(1.0)
    chk = Check()
    wl.check(q, corrupt(answer), chk)
    p.record(0, chk)
    if p.end_to_end()["failed_frac"] != 1.0:
        problems.append("a corrupted answer was accepted")

    def inputs():
        return pickle.dumps([wl.make(question_rng(seed, wl.INDEX, k), wl.SLOTS[k % len(wl.SLOTS)])
                             for k in range(len(wl.SLOTS))])

    if inputs() != inputs():
        problems.append("the same seed produced different inputs")
    return problems
