"""In-memory span recorder for a traced benchmark pass.

``Recorder.install`` replaces every public gmfkit function by a wrapper
at every gmfkit module attribute bound to it (``gmfcore``, ``etaforms``
and ``cli`` import names with ``from .x import name``, so patching the
defining module alone would miss their calls), and every public method,
arithmetic operator included, on its class.  A wrapper records a span
(name, start, end, parent, op); a few also note an output height, an
argument key or a byte count.  Self times are worked out once the pass
is over.  Functions that run once per coefficient or per matrix entry
get a call counter instead of a span, which keeps the trace cheap
enough not to distort the proportions it measures.
"""

import json
import os
import sys
import time
import types
from collections import Counter

OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__",
}
# Metric names of methods: QExpansion.divide is qseries.divide,
# CyclotomicElement.__mul__ is numberfield.cyclotomic_mul.
CLASS_PREFIX = {"QExpansion": "", "CyclotomicElement": "cyclotomic_", "CosetTable": "coset_table."}
COUNT_ONLY_MODULES = {"numberfield"}
COUNT_ONLY_CLASSES = {"IntegerMatrix"}
COUNT_ONLY = {
    "qseries.coeff",
    "subgroup.coset_table.coset_index",
    "jsonio.format_rational",
    "jsonio.parse_rational",
    "jsonio.element_to_obj",
    "jsonio.element_from_obj",
    "jsonio.field_to_obj",
    "jsonio.field_from_obj",
}

MODULES = ("qseries", "numberfield", "subgroup", "etaforms", "linalg", "gmfcore", "jsonio", "cli")

# (name, unit) of every per-layer metric; BENCHMARK.json lists the same names.
PER_LAYER = (
    [(f"qseries.{op}.self_s", "s") for op in
     ("divide", "exp_from_logderiv", "mul", "theta_logderiv", "inverse", "pow")]
    + [("qseries.mul.calls", "count"), ("qseries.coeff_bits_max", "bits"),
       ("qseries.terms_max", "terms")]
    + [(f"numberfield.{op}.calls", "count") for op in
       ("cyclotomic_mul", "cyclotomic_inverse", "galois_apply")]
    + [("subgroup.coset_table.builds", "count"), ("subgroup.coset_table.build_s", "s"),
       ("subgroup.coset_table.hit_ratio", "ratio"), ("subgroup.coset_table.rss_growth_mb", "MB"),
       ("subgroup.kappa.calls", "count"), ("subgroup.cusp_count.self_s", "s")]
    + [(f"etaforms.{fn}.self_s", "s") for fn in
       ("eta_quotient_expansion", "euler_product", "load_basis", "validate_basis")]
    + [("etaforms.load_basis.calls", "count"), ("etaforms.load_basis.repeat_ratio", "ratio")]
    + [("linalg.rank.self_s", "s"), ("linalg.solve_full_column_rank.self_s", "s"),
       ("linalg.rank.calls", "count")]
    + [(f"gmfcore.{fn}.self_s", "s") for fn in
       ("decompose_with_prefix", "cofactor_prefix", "logderiv_prefix", "fit_cusp_form",
        "verify_decomposition", "finite_order_certificate", "galois_norm")]
    + [("gmfcore.f0.coeff_bits_max", "bits"), ("gmfcore.f1.coeff_bits_max", "bits")]
    + [(f"jsonio.{fn}.self_s", "s") for fn in ("series_from_obj", "series_to_obj", "dumps")]
    + [("jsonio.bytes_out", "bytes"), ("cli.run.self_s", "s"), ("cli.import_s", "s")]
    + [(f"{module}.self_s", "s") for module in MODULES if module != "numberfield"]
    + [("trace.op_s", "s"), ("trace.overhead_ratio", "ratio")]
)


def coeff_bits(series):
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for c in series.coeffs:
        for x in getattr(c, "coords", (c,)):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _rss_mb():
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return 0.0


class Recorder:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, op index)
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.op = -1
        self.rss_growth_mb = 0.0
        self.bytes_out = 0
        self.basis_keys = set()
        self.basis_repeats = 0
        self.classes = set()

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rss_tracked(self, fn):
        def wrapper(*args, **kwargs):
            before = _rss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rss_growth_mb += _rss_mb() - before

        return wrapper

    # ------------------------------------------------------------------
    # observers: counts and heights measured where the work happens

    def _series_out(self, args, result):
        if hasattr(result, "coeffs"):
            self.maxima["qseries.coeff_bits_max"] = max(
                self.maxima["qseries.coeff_bits_max"], coeff_bits(result))
            self.maxima["qseries.terms_max"] = max(
                self.maxima["qseries.terms_max"], len(result.coeffs))

    def _decomposition_out(self, args, dec):
        for part in ("f0", "f1"):
            key = f"gmfcore.{part}.coeff_bits_max"
            self.maxima[key] = max(self.maxima[key], coeff_bits(getattr(dec, part).expansion))

    def _basis_in(self, args, result):
        key = (str(args[0]), args[1], args[2] if len(args) > 2 else None)
        if key in self.basis_keys:
            self.basis_repeats += 1
        self.basis_keys.add(key)

    def _dumps_out(self, args, text):
        self.bytes_out += len(text.encode("utf-8"))

    def _observer(self, name):
        if name.startswith("qseries."):
            return self._series_out
        return {
            "gmfcore.decompose_with_prefix": self._decomposition_out,
            "etaforms.load_basis": self._basis_in,
            "jsonio.dumps": self._dumps_out,
        }.get(name)

    def _wrap(self, name, fn, count_only):
        if count_only:
            return self._counter(name, fn)
        wrapper = self._span(name, fn, self._observer(name))
        if name == "subgroup.coset_table.build":
            wrapper = self._rss_tracked(wrapper)
        return wrapper

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the loaded gmfkit modules."""
        modules = [m for n, m in sys.modules.items() if n == "gmfkit" or n.startswith("gmfkit.")]
        wrappers = {}
        for module in modules:
            for value in vars(module).values():
                if (isinstance(value, types.FunctionType) and id(value) not in wrappers
                        and value.__module__.startswith("gmfkit.")
                        and not value.__name__.startswith("_")):
                    short = value.__module__.rsplit(".", 1)[-1]
                    name = f"{short}.{value.__name__}"
                    count_only = short in COUNT_ONLY_MODULES or name in COUNT_ONLY
                    wrappers[id(value)] = self._wrap(name, value, count_only)
                elif (isinstance(value, type) and value.__module__.startswith("gmfkit.")
                        and not issubclass(value, BaseException)):
                    self._install_class(value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _install_class(self, cls):
        if cls in self.classes:  # bound under several module names; wrap once
            return
        self.classes.add(cls)
        short = cls.__module__.rsplit(".", 1)[-1]
        prefix = CLASS_PREFIX.get(cls.__name__, cls.__name__ + ".")
        count_only = short in COUNT_ONLY_MODULES or cls.__name__ in COUNT_ONLY_CLASSES
        done = {}
        for attr, value in list(vars(cls).items()):
            kind = type(value)
            fn = value.__func__ if kind in (classmethod, staticmethod) else value
            if not isinstance(fn, types.FunctionType):
                continue
            if attr == "__init__" and cls.__name__ == "CosetTable":
                label = "build"
            elif attr in OPERATORS or not fn.__name__.startswith("_"):
                label = fn.__name__.strip("_")
            else:
                continue
            name = f"{short}.{prefix}{label}"
            if id(fn) not in done:  # __rmul__ = __mul__ shares one wrapper
                done[id(fn)] = self._wrap(name, fn, count_only or name in COUNT_ONLY)
            wrapped = done[id(fn)]
            setattr(cls, attr, kind(wrapped) if kind in (classmethod, staticmethod) else wrapped)

    # ------------------------------------------------------------------

    def run_op(self, index, kind, call):
        """Run one benchmark op under a root span named bench.<kind>."""
        self.op = index
        try:
            return self._span(f"bench.{kind}", call)()
        finally:
            self.op = -1

    def metrics(self):
        """Per-layer values for the pass (self times in seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, total_ns, calls = Counter(), Counter(), Counter(self.counts)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
            total_ns[name] += end - start
            calls[name] += 1
        out = {name: 0 for name, _ in PER_LAYER}
        for name, _ in PER_LAYER:
            head, _, tail = name.rpartition(".")
            if tail == "self_s" and head in MODULES:
                out[name] = sum(v for k, v in self_ns.items() if k.startswith(head + ".")) / 1e9
            elif tail == "self_s":
                out[name] = self_ns[head] / 1e9
            elif tail == "calls":
                out[name] = calls[head]
        table_calls = calls["subgroup.coset_table"]
        builds = calls["subgroup.coset_table.build"]
        basis_calls = calls["etaforms.load_basis"]
        out.update(self.maxima)
        out.update({
            "subgroup.coset_table.builds": builds,
            "subgroup.coset_table.build_s": total_ns["subgroup.coset_table.build"] / 1e9,
            "subgroup.coset_table.hit_ratio": (table_calls - builds) / table_calls if table_calls else 0.0,
            "subgroup.coset_table.rss_growth_mb": self.rss_growth_mb,
            "etaforms.load_basis.repeat_ratio": self.basis_repeats / basis_calls if basis_calls else 0.0,
            "jsonio.bytes_out": self.bytes_out,
            "trace.op_s": sum(total_ns[k] for k in total_ns if k.startswith("bench.")) / 1e9,
        })
        return out

    def write(self, path):
        """Write every span as JSON: [name, start_ns, end_ns, parent, op]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, handle)
