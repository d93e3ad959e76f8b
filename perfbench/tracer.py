"""In-memory spans around calls into negprob's public functions.

The recorder hooks the code objects of the public functions with
``sys.setprofile``, so a call is caught however it is reached: through the
module attribute, through a reference captured at import time (``claims``
keeps ``entropy``, ``varentropy`` and ``varextropy`` in its
``_INEQUALITY_MEASURE`` / ``_MAXIMIZER_MEASURE`` dicts), or through a
method. Nothing under ``src/`` is changed.

A span is ``[id, parent_id, name, t0, t1, info]``. The recorder opens a
root span named ``op`` around the whole traced block, so every span has a
parent except the root. Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Span name -> the public functions it covers, as "module:qualname".
TARGETS: dict[str, tuple[str, ...]] = {
    "simplex.sample": ("negprob.simplex:sample_uniform_simplex",),
    "simplex.validate": ("negprob.simplex:Distribution.__post_init__",),
    "simplex.majorizes": ("negprob.simplex:majorizes",),
    "negation.negate": ("negprob.negation:negate",),
    "negation.negate_k": ("negprob.negation:negate_k",),
    "negation.trace": ("negprob.negation:trace_negation",),
    "measures": tuple(
        "negprob.measures:" + name
        for name in (
            "entropy",
            "gini_entropy",
            "extropy",
            "varentropy",
            "varextropy",
            "measure_all",
            "uniform_varextropy",
        )
    ),
    "claims.check_claim": ("negprob.claims:check_claim",),
    "cli.main": ("negprob.cli:main",),
}


def resolve():
    """Map each target's code object to its span name.

    Returns ``(codes, missing)``; ``missing`` lists the "module:qualname"
    entries that do not exist, so their metrics can be reported absent.
    """
    codes = {}
    missing = []
    for span_name, refs in TARGETS.items():
        for ref in refs:
            module_name, qualname = ref.split(":")
            try:
                obj = importlib.import_module(module_name)
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                codes[obj.__code__] = span_name
            except (ImportError, AttributeError):
                missing.append(ref)
    return codes, missing


def _arg(frame, position):
    return frame.f_locals[frame.f_code.co_varnames[position]]


def _sample_key(frame):
    config = _arg(frame, 0)
    return [config.seed, config.n, _arg(frame, 1)]


def _entries(frame):
    probs = getattr(_arg(frame, 0), "probs", None)
    return 0 if probs is None else len(probs)


# Extra facts a span records, read from the frame when it opens or closes.
# Validation reads its entries on return, after probs became a tuple.
_INFO_AT_CALL = {
    "simplex.sample": _sample_key,
    "measures": _entries,
    "claims.check_claim": lambda frame: _arg(frame, 0),
}
_INFO_AT_RETURN = {"simplex.validate": _entries}


def _info(getter, frame):
    try:
        return getter(frame)
    except (AttributeError, KeyError, IndexError, TypeError):
        return None


class SpanRecorder:
    """Records spans while active; use as a context manager around one
    operation. ``spans`` keeps every span of that operation in memory."""

    def __init__(self, codes):
        self._codes = codes
        self.spans: list[list] = []
        self._open: list[tuple] = []

    def __enter__(self):
        self.spans = [[0, -1, "op", perf_counter(), 0.0, None]]
        self._open = [(None, self.spans[0])]
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self.spans[0][4] = perf_counter()
        return False

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._codes.get(frame.f_code)
            if name is None:
                return
            getter = _INFO_AT_CALL.get(name)
            span = [
                len(self.spans),
                self._open[-1][1][0],
                name,
                0.0,
                0.0,
                _info(getter, frame) if getter else None,
            ]
            self.spans.append(span)
            self._open.append((frame, span))
            span[3] = perf_counter()
        elif event == "return" and self._open[-1][0] is frame:
            t1 = perf_counter()
            span = self._open.pop()[1]
            span[4] = t1
            getter = _INFO_AT_RETURN.get(span[2])
            if getter:
                span[5] = _info(getter, frame)


def summarize(spans, claim_kinds):
    """Per-name totals for one operation's spans.

    ``check_claim`` spans are renamed ``claims.<kind>`` using
    ``claim_kinds`` (claim id -> kind). Returns a dict with ``stats``
    (name -> [calls, wall_s, self_s, entries]), ``sample_keys`` (the
    distinct (seed, n, trial) triples sampled) and ``maximizer_measures``
    (measure calls made inside maximizer claims).
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            children[span[1]] += span[4] - span[3]
    context: list = [None] * len(spans)
    stats: dict[str, list] = {}
    sample_keys = set()
    maximizer_measures = 0
    for sid, parent, name, t0, t1, info in spans:
        if name == "claims.check_claim":
            name = "claims." + claim_kinds.get(info, "unknown")
            context[sid] = name
        elif parent >= 0:
            context[sid] = context[parent]
        duration = t1 - t0
        entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children[sid]
        if isinstance(info, int):
            entry[3] += info
        if name == "simplex.sample" and info is not None:
            sample_keys.add(tuple(info))
        if name == "measures" and context[sid] == "claims.maximizer":
            maximizer_measures += 1
    return {
        "stats": stats,
        "sample_keys": sample_keys,
        "maximizer_measures": maximizer_measures,
    }
