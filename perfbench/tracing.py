"""Span tracing from outside the package.

``instrument`` replaces public functions of simcse_forge at the name the
caller resolves (``training.encode``, ``cli.load_checkpoint``,
``Tensor.backward`` ...) with wrappers that record one span per call: name,
start, end and the enclosing span. Counts are recorded at the same boundary
and stored on the span. Spans stay in memory until the run ends; ``dump``
writes them out, and ``layer_totals``/``layer_share`` turn them into the
per-layer metrics.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from bisect import bisect_right
from pathlib import Path

# Spans that stand for the caller's own loop rather than a layer: the CLI
# command and the trainers. Their self time is reported as cli.self_ms and
# training.self_ms; every other span name is a layer.
ROOTS = ("cli", "training")


def _count_batch(args, result):
    """Real tokens and padded slots in the masks a batching call returned."""
    if isinstance(result, tuple):          # pad_batch -> (ids, mask)
        masks = [result[1]]
    else:                                  # make_batches -> [Batch]
        masks = [m for b in result
                 for m in (b.mask, b.b_mask, b.c_mask) if m is not None]
    return {"pad_real": float(sum(m.sum() for m in masks)),
            "pad_slots": float(sum(m.size for m in masks))}


def _graph_nodes(loss) -> int:
    """Nodes of the autograd graph reachable from the loss."""
    seen, stack, n = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        node = getattr(t, "node", None)
        if node is not None:
            n += 1
            stack.extend(p for p in node.parents if p.requires_grad)
    return n


def _count_encode(args, result):
    return {"encode_calls": 1}


def _count_backward(args, result):
    return {"graph_nodes": _graph_nodes(args[0])}


def _count_mask(args, result):
    return {"mask_units": int(result.size)}


def _count_site(args, result):
    return {"sites": 1}


def _count_adamw(args, result):
    return {"tensors_updated": sum(p.grad is not None for _, p in args[0])}


_LOSSES = ("unsup_simcse_loss", "sup_simcse_loss", "mse_loss", "bce_loss",
           "ce_loss", "sts_score", "sst_logits", "paraphrase_logit")

# (span name, owner, attribute, count function). The owner is a module of
# simcse_forge, or module.Class for methods; the attribute is replaced there,
# so only callers that resolve that name see the wrapper.
PATCHES = (
    [("autograd.gelu", "autograd", "gelu", None),
     ("autograd.softmax", "encoder", "softmax", None),
     ("autograd.matmul", "encoder", "matmul", None),
     ("autograd.matmul", "objectives", "matmul", None),
     ("autograd.layer_norm", "encoder", "layer_norm", None),
     ("encoder.attention", "encoder", "multi_head_attention", None),
     ("encoder.encode", "training", "encode", _count_encode),
     ("encoder.encode", "cli", "encode", _count_encode),
     ("autograd.backward", "autograd.Tensor", "backward", _count_backward),
     ("rng.mask", "rng.Rng", "bernoulli", _count_mask),
     ("dropout.site", "encoder", "apply_dropout", _count_site),
     ("optim.adamw", "training", "adamw_step", _count_adamw)]
    + [("objectives.loss", "training", name, None) for name in _LOSSES]
    + [("data.batch", owner, name, _count_batch)
       for owner in ("training", "cli") for name in ("pad_batch", "make_batches")]
    + [("training.eval", "training", "evaluate_task", None),
       ("training.eval", "cli", "evaluate_task", None),
       ("checkpoint.save", "cli", "save_checkpoint", None),
       ("checkpoint.load", "cli", "load_checkpoint", None)]
    + [("data.tokenize", "cli", name, None)
       for name in ("tokenize", "read_rows", "load_tsv", "examples_from_rows")]
    + [("data.tokenize", "training", "tokenize", None)]
    + [("training", "training", name, None)
       for name in ("train_single_task", "train_unsup_simcse",
                    "train_sup_simcse", "run_two_tier")]
    + [("training", "cli", "run_two_tier", None),
       ("cli", "cli", "main", None)]
)


class Tracer:
    """In-memory span log. Each span is [name, start_ns, end_ns, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, 0, 0, stack[-1], None]
            spans.append(span)
            stack.append(i)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (and run metadata) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, fields=["name", "start_ns", "end_ns", "parent", "counts"],
                   spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"simcse_forge.{module}")
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every patch in PATCHES; restore the originals on exit.

    Yields the targets that do not exist in this version of the package,
    so a renamed function shows up as a missing layer instead of a crash.
    """
    installed, missing = [], []
    try:
        for name, owner, attr, count in PATCHES:
            target = _resolve(owner)
            original = target.__dict__.get(attr) if isinstance(target, type) \
                else getattr(target, attr, None)
            if original is None:
                missing.append(f"{owner}.{attr}")
                continue
            setattr(target, attr, tracer.wrap(name, original, count))
            installed.append((target, attr, original))
        yield missing
    finally:
        for target, attr, original in reversed(installed):
            setattr(target, attr, original)


def self_times(spans) -> list[int]:
    """Span duration minus the durations of its direct children, in ns."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans) -> tuple[dict[str, int], dict[str, int], dict[str, float]]:
    """Per span name: total self time and total span time (ns); and the
    total of each count."""
    times: dict[str, int] = {}
    whole: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        times[s[0]] = times.get(s[0], 0) + own
        whole[s[0]] = whole.get(s[0], 0) + s[2] - s[1]
        if s[4]:
            for k, v in s[4].items():
                counts[k] = counts.get(k, 0) + v
    return times, whole, counts


def layer_share(spans, intervals) -> list[float]:
    """For each (start_ns, end_ns) interval, the share of it covered by layer
    spans, i.e. by anything but the cli/training roots' own time."""
    is_root = [s[0] in ROOTS for s in spans]
    tops = sorted((s[1], s[2]) for s, root in zip(spans, is_root)
                  if not root and (s[3] < 0 or is_root[s[3]]))
    starts = [a for a, _ in tops]
    shares = []
    for a, b in intervals:
        covered = 0
        i = max(bisect_right(starts, a) - 1, 0)
        while i < len(tops) and tops[i][0] < b:
            lo, hi = max(tops[i][0], a), min(tops[i][1], b)
            if hi > lo:
                covered += hi - lo
            i += 1
        shares.append(covered / (b - a) if b > a else 0.0)
    return shares
