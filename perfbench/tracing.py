"""Span tracing of one `catgate` invocation, and the per-layer split it gives.

Run as a script, this file is the traced child:

    python3 perfbench/tracing.py SPANS_PATH INVOCATION_ID -- ARGV...

It imports `catgate.cli` (timed), wraps every function named in the
`__all__` of each catgate module, rebinding the name in every catgate module
that holds it, then calls `catgate.cli.main(ARGV)`. Spans (name, start, end,
parent) stay in memory and are written to SPANS_PATH as JSON when the call
returns, together with work counts gathered at the same boundaries and an
unwrapped clock reading of the whole `main` call.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans of its functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types

PACKAGE = "catgate"
MODULES = ("numerics", "states", "gate", "metrics", "wigner", "phase_map", "cli")
ROOT = "trace.child"
IMPORT = "import"
INSTALL = "trace.install"


# numpy is not imported here, so that the child's timed import of
# catgate.cli includes it as it does in an untraced run.


def _batch(series) -> int:
    return math.prod(series.coeffs.shape[1:])


def _series_exp_ops(a) -> dict:
    order = a.coeffs.shape[0] - 1
    return {"numerics.series.coeff_ops": order * order * _batch(a) / 2}


def _series_mul_ops(a, b) -> dict:
    # batch axes are either absent or one shared length, so they broadcast to the larger
    order = min(a.coeffs.shape[0], b.coeffs.shape[0]) - 1
    return {"numerics.series.coeff_ops": order * order * max(_batch(a), _batch(b)) / 2}


def _hermite_points(n, x) -> dict:
    return {"numerics.eval_hermite_fn.points": n * getattr(x, "size", 1)}


def _mehler_points(params, inp, x_axis, p_axis) -> dict:
    return {"wigner.mehler.grid_points": x_axis.count * p_axis.count}


def _quadrature_bytes(state, x_axis, p_axis) -> dict:
    half = (state.grid.count - 1) // 2
    return {"wigner.quadrature.corr_bytes": x_axis.count * (2 * half + 1) * 16}


# Work counts computed from the arguments of a call, keyed by span name.
COUNTERS = {
    "numerics.series_exp": _series_exp_ops,
    "numerics.series_mul": _series_mul_ops,
    "numerics.eval_hermite_fn": _hermite_points,
    "wigner.wigner_mehler": _mehler_points,
    "wigner.wigner_quadrature": _quadrature_bytes,
}


class Tracer:
    """Records spans and counts for the wrapped catgate functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([self._name_index(name), time.perf_counter(), None, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_idx = self._name_index(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_idx, clock(), None, stack[-1]])
            stack.append(idx)
            try:
                self.counts[calls] = self.counts.get(calls, 0) + 1
                if counter is not None:
                    for key, amount in counter(*args, **kwargs).items():
                        self.counts[key] = self.counts.get(key, 0) + amount
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def wrap_adaptive(self, fn):
        """Count integrand nodes of metrics._adaptive_nodes: evaluated over
        all levels, and those of the final level it returns."""

        @functools.wraps(fn)
        def counted(lo, hi, evaluate):
            last = [0]

            def counting(ys):
                last[0] = ys.size
                self.count("metrics.adaptive.evaluated_nodes", last[0])
                return evaluate(ys)

            result = fn(lo, hi, counting)
            self.count("metrics.adaptive.final_nodes", last[0])
            return result

        return counted

    def install(self) -> dict:
        """Wrap the public functions of every package module in place.

        Returns {original function: wrapper}. Every module-level name bound
        to an original, in any module of the package, is rebound.
        """
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        top = importlib.import_module(PACKAGE)
        replace = {}
        for short, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replace[obj] = self.wrap(f"{short}.{attr}", obj)
        adaptive = modules["metrics"]._adaptive_nodes
        replace[adaptive] = self.wrap_adaptive(adaptive)
        for mod in (top, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    setattr(mod, attr, replace[obj])
        return replace

    def dump(self, invocation: int, main_s: float) -> dict:
        return {
            "invocation": invocation,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "main_s": main_s,
        }


def self_times(record: dict) -> dict[str, float]:
    """Self time per span name: duration minus the time child spans cover.

    Calls are properly nested in one thread, so the children of a span cover
    exactly the sum of their durations.
    """
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name_idx, start, end, _), covered in zip(spans, child_time):
        name = record["names"][name_idx]
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_PATH INVOCATION_ID -- ARGV...")
    tracer = Tracer()
    root = tracer.open(ROOT)
    imp = tracer.open(IMPORT)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.close(imp)
    install = tracer.open(INSTALL)
    tracer.install()
    tracer.close(install)
    # An unwrapped reading of the call, against which the cli.main span is checked.
    start = time.perf_counter()
    try:
        status = cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects a flag with exit 2
        status = exc.code
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    tracer.close(root)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(int(invocation), main_s), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
