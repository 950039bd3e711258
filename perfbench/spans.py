"""Call tracing for the benchmark's traced runs.

The program is not instrumented. Instead, :func:`install` replaces each
traced function with a wrapper in *every* petzlab module that holds a
binding to it: the modules import with ``from .matcore import herm_eig``,
so patching only ``matcore.herm_eig`` would miss most calls. Methods are
patched on their class. Spans stay in memory, each with its parent, and are
written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import petzlab
from petzlab import bench, decoders, infomeasures, matcore, optdec, quantum

MODULES = (petzlab, matcore, quantum, infomeasures, decoders, optdec, bench)


def _herm_eig_dim(args, kwargs, result):
    return result.eigenvalues.size


def _dim_env(args, kwargs, result):
    return result.dim_env


def _sdp_solution(args, kwargs, result):
    prob = args[0] if args else kwargs["prob"]
    return (result.iterations, abs(result.gap), prob.dim)


# (span name, owner, attribute, observer). The observer pulls one datum per
# call out of the arguments and result; it runs outside the timed span.
FUNCTIONS = (
    ("matcore.herm_eig", matcore, "herm_eig", _herm_eig_dim),
    ("matcore.matrix_power_on_support", matcore, "matrix_power_on_support", None),
    ("matcore.partial_trace", matcore, "partial_trace", None),
    ("quantum.purify", quantum, "purify", None),
    ("quantum.channel_on_purification", quantum, "channel_on_purification", None),
    ("quantum.make_channel", quantum, "make_channel", None),
    ("quantum.validate_cptp", quantum, "validate_cptp", None),
    ("quantum.choi_of_channel", quantum, "choi_of_channel", None),
    ("quantum.channel_from_choi", quantum, "channel_from_choi", None),
    ("quantum.stinespring_dilation", quantum, "stinespring_dilation", _dim_env),
    ("infomeasures.epsilon_sw", infomeasures, "epsilon_sw", None),
    ("infomeasures.min_petz_mi_order2", infomeasures, "min_petz_mi_order2", None),
    ("decoders.RotatedFidelity.init", decoders.RotatedFidelity, "__init__", None),
    ("decoders.RotatedFidelity.value", decoders.RotatedFidelity, "value", None),
    ("decoders.RotatedFidelity.twirled", decoders.RotatedFidelity, "twirled", None),
    ("decoders.build_sw", decoders, "build_sw", None),
    ("decoders.build_petz", decoders, "build_petz", None),
    ("decoders.build_rotated_petz", decoders, "build_rotated_petz", None),
    ("decoders.build_twirled_petz", decoders, "build_twirled_petz", None),
    ("decoders.fe_of_decoder", decoders, "fe_of_decoder", None),
    ("decoders.beta0_quadrature", decoders, "beta0_quadrature", None),
    ("optdec.reduce_problem", optdec, "reduce_problem", None),
    ("optdec.build_fidelity_sdp", optdec, "build_fidelity_sdp", None),
    ("optdec.solve_sdp", optdec, "solve_sdp", _sdp_solution),
)

SPAN_NAMES = tuple(name for name, _, _, _ in FUNCTIONS)


class Tracer:
    """In-memory span recorder.

    A span is ``(name, parent, start, end, datum)``; ``parent`` is the index
    of the enclosing traced span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, None)
            if observe is not None:
                spans[index] = (name, parent, start, end, observe(args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, data."""
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "data": []}
            for name in SPAN_NAMES
        }
        for index, (name, _, start, end, datum) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
            if datum is not None:
                entry["data"].append(datum)
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: index,parent,name,start_s,end_s."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for index, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{index},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def install(tracer: Tracer):
    """Patch every binding of every traced function; return an undo callable."""
    undo = []
    for name, owner, attr, observe in FUNCTIONS:
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, observe)
        holders = (owner,) if isinstance(owner, type) else MODULES
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def restore():
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

    return restore
