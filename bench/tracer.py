"""In-memory span tracer that patches crossnode functions from outside.

Each patch replaces a function at the name its caller looks up: a module
attribute for calls written ``module.func(...)``, or the importing module's
own global for names imported with ``from .x import func``.  A target that no
longer exists is recorded as absent instead of failing the run.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``counts`` holds work counts taken
from the call's arguments or result.  Spans stay in memory until the process
writes its result file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

import numpy as np


def _backward_counts(args, result):
    grad_bytes = sum(np.asarray(g).nbytes for g in result.values())
    param_bytes = sum(
        np.asarray(g).nbytes
        for t, g in result.items()
        if getattr(t, "name", None) is not None
    )
    return {"grad_bytes": grad_bytes, "param_grad_bytes": param_bytes}


def _assemble_counts(args, result):
    batch_src, batch_tgt = args[2], args[3]
    dup = sum(len(b) - len(np.unique(b)) for b in (batch_src, batch_tgt))
    empty = int(result.w_src.empty_rows().sum() + result.w_tgt.empty_rows().sum())
    return {"dup_ids": dup, "empty_rows": empty}


# (span name, module, attribute, counts hook).  The train step alone is the
# probe that untraced runs keep, to time set-up and the step rate.
PROBE = [("train.step", "crossnode.train", "train_step", None)]
LAYERS = PROBE + [
    ("train.assemble", "crossnode.train", "assemble_batch", _assemble_counts),
    ("proximity.batch_weights", "crossnode.train", "batch_weights", None),
    ("proximity.propagation_weights", "crossnode.train", "propagation_weights", None),
    ("train.forward", "crossnode.train", "batch_losses", None),
    ("encoder.encode", "crossnode.encoder", "encode", None),
    ("classifier.propagate", "crossnode.classifier", "propagate_predictions", None),
    ("adversary.discriminator", "crossnode.adversary", "discriminator_predict", None),
    ("nn.backward", "crossnode.nn", "backward", _backward_counts),
    ("adversary.reversal", "crossnode.train", "adversarial_gradients", None),
    ("nn.sgd", "crossnode.nn", "sgd_momentum_step", None),
    ("proximity.high_order", "crossnode.train", "high_order_proximity", None),
    ("proximity.transition", "crossnode.proximity", "transition_matrix", None),
    (
        "proximity.aggregate",
        "crossnode.proximity",
        "aggregate_transitions",
        lambda args, result: {"nnz": result.nnz},
    ),
    (
        "proximity.ppmi",
        "crossnode.proximity",
        "ppmi",
        lambda args, result: {"nnz": result.matrix.nnz},
    ),
    ("encoder.neighbor_aggregate", "crossnode.encoder", "neighbor_aggregate_matrix", None),
    ("train.embed", "crossnode.train", "embed_network", None),
    ("train.predict", "crossnode.train", "predict_network", None),
    ("train.predict", "crossnode.cli", "predict_network", None),
    ("train.load_model", "crossnode.cli", "load_model", None),
    (
        "nn.load_checkpoint",
        "crossnode.nn",
        "load_checkpoint",
        lambda args, result: {"bytes": os.path.getsize(args[0])},
    ),
    (
        "graphs.load_network",
        "crossnode.cli",
        "load_network",
        lambda args, result: {"attr_triplets": result.attributes.nnz},
    ),
    ("metrics.f1", "crossnode.cli", "f1_scores", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.absent: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block and yield its index."""
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if hook is not None:
                self.spans[idx][4] = hook(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, patches):
        """Install span wrappers for the block, then restore the originals."""
        saved = []
        try:
            for name, module, attr, hook in patches:
                try:
                    owner = importlib.import_module(module)
                except ModuleNotFoundError:
                    owner = None
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.add(f"{module}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
