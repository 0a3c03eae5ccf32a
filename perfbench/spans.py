"""In-memory span recording around the public names each ristensor layer calls.

Wrappers are installed in the *caller's* namespace (for example
`ristensor.harness.draw_channels`, the name `_run_trial` looks up), so no file
of the package changes and every call through that name becomes one span.
Spans stay in memory; the owning process writes them out when its work ends.
"""

import contextlib
import functools
import json
import os
import time

# (module, attribute, span name). The span name's prefix is the layer: the
# module that defines the function, or `harness` for the runner itself.
TARGETS = (
    ("ristensor.cli", "load_config", "cli.load_config"),
    ("ristensor.cli", "run_experiment", "harness.run_experiment"),
    ("ristensor.cli", "emit_results", "harness.emit_results"),
    ("ristensor.cli", "aggregate_records", "harness.aggregate_records"),
    ("ristensor.harness", "_run_chunk", "harness.run_chunk"),
    ("ristensor.harness", "draw_channels", "channels.draw_channels"),
    ("ristensor.harness", "make_schedule", "signals.make_schedule"),
    ("ristensor.harness", "synthesize", "signals.synthesize"),
    ("ristensor.harness", "two_stage_estimate", "estimators.two_stage"),
    ("ristensor.harness", "e_als_estimate", "estimators.e_als"),
    ("ristensor.harness", "ls_baseline", "estimators.ls"),
    ("ristensor.harness", "StackedLsSolver", "estimators.ls_setup"),
    ("ristensor.harness", "resolve_scaling", "metrics.resolve_scaling"),
    ("ristensor.harness", "nmse", "metrics.nmse"),
    ("ristensor.harness", "aggregate_vector_nmse", "metrics.aggregate_vector_nmse"),
    ("ristensor.harness", "complexity_formula", "metrics.complexity_formula"),
    ("ristensor.estimators", "als_ris", "estimators.als_ris"),
    ("ristensor.estimators", "pinv_left", "tensor_ops.pinv"),
    ("ristensor.estimators", "pinv_right", "tensor_ops.pinv"),
    ("ristensor.estimators", "khatri_rao", "tensor_ops.khatri_rao"),
)

# The chunk is the unit of work a pool worker runs; worker spans are flushed
# to disk when it returns, because a worker's memory is gone once it exits.
_CHUNK = "harness.run_chunk"
LEAF = "estimators.ls_setup"


class Recorder:
    """Spans of one process: [name, parent index or -1, start, end]."""

    def __init__(self, flush_dir):
        self.main_pid = self.pid = os.getpid()
        self.flush_dir = flush_dir
        self.spans = []
        self._stack = []
        self._saved = []

    def _reset_after_fork(self):
        # a forked pool worker inherits the parent's spans and open stack
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def _flush(self):
        path = os.path.join(self.flush_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = name == _CHUNK and os.getpid() != self.main_pid
            if in_worker and os.getpid() != self.pid:
                self._reset_after_fork()
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if in_worker:
                    self._flush()

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around the CLI call."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self, modules):
        """Replace every target name with its wrapper; `modules` maps name to module."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for mod_name, attr, span_name in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def wrappers_removed(modules, originals):
    """True when every target name is bound to the object it had before install."""
    return all(
        getattr(modules[mod_name], attr) is originals[(mod_name, attr)]
        for mod_name, attr, _ in TARGETS
    )


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def self_times(spans):
    """Self time per span: its duration minus the time of its direct children.

    The LS set-up is counted as a leaf. Its one large pinv is the cached
    factorization the set-up exists to build, so that time stays with the
    set-up in the self-time table (tensor_ops.pinv_* still count the call).
    """
    own = [end - start for _, _, start, end in spans]
    inside_leaf = [False] * len(spans)
    for i, (_, parent, start, end) in enumerate(spans):
        # a parent is appended before its children
        if parent < 0:
            continue
        inside_leaf[i] = inside_leaf[parent] or spans[parent][0] == LEAF
        if inside_leaf[i]:
            own[i] = 0.0
        else:
            own[parent] -= end - start
    return own
