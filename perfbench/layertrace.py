"""Timing shims around the package's public functions, installed from outside.

Each traced layer function is replaced, at every name its callers look it up
by, with a shim that times the call and subtracts the time spent in traced
callees, which gives its self time. Coarse calls (a CLI run, a learning
epoch, the lemma suite) also keep one span each in memory; per-label calls
(a band draw, a label query) only add to aggregate counters, so 800k draws
cost two clock reads each and no stored record.

`geometry` is left untraced on purpose: it is called O(1) times per epoch,
and its time shows up as self time of the caller.
"""

import importlib
import time

MODULES = ("cli", "learner", "oracles", "distributions", "sparse", "diagnostics", "schedules")

# (layer name, per-label call, [(module, attribute path) where callers look it up])
TARGETS = (
    ("cli.main", False, [("halfband.cli", "main")]),
    ("learner.learn", False, [("halfband.cli", "learn")]),
    ("learner.initialize", False, [("halfband.learner", "initialize")]),
    ("learner.optimize", False, [("halfband.learner", "optimize"), ("halfband", "optimize")]),
    ("learner.erm_select", False, [("halfband.learner", "erm_select")]),
    ("oracles.BandSampler.draw", True, [("halfband.oracles", "BandSampler.draw")]),
    ("oracles.query_label", True, [("halfband.learner", "query_label")]),
    (
        "oracles.eta_of_margin",
        True,
        [("halfband.oracles", "eta_of_margin"), ("halfband.diagnostics", "eta_of_margin")],
    ),
    ("sparse.bregman_step", True, [("halfband.learner", "bregman_step")]),
    (
        "sparse.project_intersection",
        True,
        [("halfband.learner", "project_intersection"), ("halfband.sparse", "project_intersection")],
    ),
    ("sparse.project_l1_ball", True, [("halfband.sparse", "project_l1_ball")]),
    ("distributions.truncated_margin", True, [("halfband.distributions", "truncated_margin")]),
    ("distributions.sample", True, [("halfband.distributions", "sample")]),
    ("distributions.certify_parameters", False, [("halfband.distributions", "certify_parameters")]),
    ("diagnostics.verify_lemma_suite", False, [("halfband.cli", "verify_lemma_suite")]),
    (
        "diagnostics.estimate_psi",
        False,
        [("halfband.diagnostics", "estimate_psi"), ("halfband", "estimate_psi")],
    ),
    (
        "diagnostics.excess_error",
        False,
        [("halfband.cli", "excess_error"), ("halfband", "excess_error")],
    ),
    (
        "schedules.schedule_for",
        False,
        [
            ("halfband.learner", "schedule_for"),
            ("halfband.cli", "schedule_for"),
            ("halfband", "schedule_for"),
        ],
    ),
)


class Tracer:
    """Spans and per-layer counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end) for coarse calls
        self.stats = {name: [0, 0.0] for name, _, _ in TARGETS}  # calls, self seconds
        self._stack = []  # open frames: [child seconds, id of nearest enclosing span]
        self._next_id = 0
        self._saved = []

    def _shim(self, name, fn, per_label):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if per_label:
                frame = [0.0, stack[-1][1] if stack else None]
            else:
                frame = [0.0, self._new_id()]
                parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                if not per_label:
                    spans.append((frame[1], parent, name, t0, t1))

        shim.__wrapped__ = fn
        return shim

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def install(self):
        for name, per_label, sites in TARGETS:
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._shim(name, original, per_label))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, name):
        """Context manager for a harness-level span that parents everything inside it."""
        return _Root(self, name)

    def snapshot(self):
        return {name: list(stat) for name, stat in self.stats.items()}


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = [0.0, self.tracer._new_id()]
        self.tracer._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack.pop()
        self.wall_s = t1 - self.t0
        self.self_s = self.wall_s - self.frame[0]
        self.tracer.spans.append((self.frame[1], None, self.name, self.t0, t1))
        return False


def diff_stats(after, before):
    return {name: [a - b for a, b in zip(after[name], before[name])] for name in after}
