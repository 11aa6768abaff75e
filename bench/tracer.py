"""Per-layer tracing from outside the library.

Every public function of each toruslink module is replaced by a wrapper
that records a span {name, start, end, parent, task}.  `from .x import f`
binds f into the importing module at import time, so the wrapper is
installed under every name in every toruslink module that refers to the
same function object.  Self time (a span's duration minus the time its
child spans cover) and call counts are accumulated as the spans close;
the first SPAN_CAP spans are also kept in memory and written out at the
end.
"""

import functools
import json
import time
from collections import defaultdict

MODULES = ("arith", "polyring", "alexander", "moments", "distribution", "covers", "iwasawa", "cli")
SPAN_CAP = 100_000

# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = (
    ("arith.factorize.hit_ratio", "ratio", "higher"),
    ("arith.is_prime.calls", "count", "lower"),
    ("polyring.resultant.calls", "count", "lower"),
    ("polyring.resultant.self_s", "s", "lower"),
    ("polyring.resultant.dim_sum", "count", "lower"),
    ("polyring.poly_divmod.self_s", "s", "lower"),
    ("polyring.poly_divmod.max_in_degree", "count", "lower"),
    ("polyring.poly_mul.self_s", "s", "lower"),
    ("polyring.poly_exact_div.self_s", "s", "lower"),
    ("polyring.squarefree_decomposition.self_s", "s", "lower"),
    ("alexander.alexander_poly.calls", "count", "lower"),
    ("alexander.alexander_poly.self_s", "s", "lower"),
    ("alexander.cyclotomic_multiplicities.calls", "count", "lower"),
    ("alexander.cyclotomic_multiplicities.self_s", "s", "lower"),
    ("alexander.specialize_z.self_s", "s", "lower"),
    ("alexander.determinant.self_s", "s", "lower"),
    ("alexander.coloring_zero_order.self_s", "s", "lower"),
    ("moments.moment_record.self_s", "s", "lower"),
    ("moments.residue_table.self_s", "s", "lower"),
    ("moments.parseval_check.self_s", "s", "lower"),
    ("distribution.scan.self_s", "s", "lower"),
    ("distribution.scan.pairs", "count", "lower"),
    ("distribution.arc_count_single.calls", "count", "lower"),
    ("distribution.arc_count_single.self_s", "s", "lower"),
    ("distribution.primitive_in_arc.hit_ratio", "ratio", "higher"),
    ("distribution.frequency_Fr.self_s", "s", "lower"),
    ("distribution.count_roots_total.self_s", "s", "lower"),
    ("distribution.weyl_sum.self_s", "s", "lower"),
    ("distribution.outer_bytes_max", "bytes", "lower"),
    ("covers.homology_order_cyclic.calls", "count", "lower"),
    ("covers.homology_order_cyclic.self_s", "s", "lower"),
    ("covers.tower_orders_knot.self_s", "s", "lower"),
    ("covers.tower_orders_link.self_s", "s", "lower"),
    ("covers.tower_levels_built", "count", "lower"),
    ("covers.tower_quotient_degree_max", "count", "lower"),
    ("covers.mahler_measure_roots.self_s", "s", "lower"),
    ("covers.mahler_measure_quadrature.self_s", "s", "lower"),
    ("covers.quadrature_points", "count", "lower"),
    ("iwasawa.complete_at_ell.self_s", "s", "lower"),
    ("iwasawa.link_invariants.self_s", "s", "lower"),
    ("iwasawa.knot_invariants.self_s", "s", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    *((f"{m}.raised", "count", "lower") for m in MODULES),
    ("trace.task_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _degree(f):
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return n - 1


def _levels(report):
    """(levels in the report, largest quotient degree paired with Delta)."""
    ell, n_max = report.ell, len(report.orders) - 1
    if report.relative:
        # levels after the first zero order are filled in, not built
        last = report.orders.index(0) if 0 in report.orders else n_max
        degs = [ell**n - ell**report.v for n in range(report.v + 1, last + 1)]
    else:
        pq = report.params.p * report.params.q
        degs = [ell**n % pq for n in range(n_max + 1)]
    return len(report.orders), max(degs, default=0)


def _hook_resultant(c, args, result):
    c["polyring.resultant.dim_sum"] += _degree(args[0]) + _degree(args[1])


def _hook_divmod(c, args, result):
    c["polyring.poly_divmod.max_in_degree"] = max(c["polyring.poly_divmod.max_in_degree"], _degree(args[0]))


def _hook_scan(c, args, result):
    c["distribution.scan.pairs"] += result[0].t_count


def _hook_outer(c, args, result):
    # frequency_Fr and the knot branch of count_roots_total build X-by-X
    # int64 arrays; the size is computed from X, not measured.
    if len(args) < 2 or args[1] != "all_links":
        c["distribution.outer_bytes_max"] = max(c["distribution.outer_bytes_max"], 8 * args[0] ** 2)


def _hook_tower(c, args, result):
    levels, deg = _levels(result)
    c["covers.tower_levels_built"] += levels
    c["covers.tower_quotient_degree_max"] = max(c["covers.tower_quotient_degree_max"], deg)


def _hook_quadrature(c, args, result):
    c["covers.quadrature_points"] += args[1]


HOOKS = {
    "polyring.resultant": _hook_resultant,
    "polyring.poly_divmod": _hook_divmod,
    "distribution.scan": _hook_scan,
    "distribution.frequency_Fr": _hook_outer,
    "distribution.count_roots_total": _hook_outer,
    "distribution.count_coprime_pairs": _hook_outer,
    "covers.tower_orders_knot": _hook_tower,
    "covers.tower_orders_link": _hook_tower,
    "covers.mahler_measure_quadrature": _hook_quadrature,
}


def _is_traced(module, name, obj):
    if getattr(obj, "__module__", None) != module.__name__ or isinstance(obj, type):
        return False
    if not callable(obj):
        return False
    if module.__name__.endswith(".cli"):
        return name == "main" or name.startswith("_cmd_")
    return not name.startswith("_")


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules          # short name -> module
        self.on = False
        self.task = -1
        self.names = []
        self.module_index = []
        self.calls = []
        self.self_s = []
        self.raised = defaultdict(int)
        self._last_raised = {}
        self.counters = defaultdict(float)
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self._patched = []

    def _index(self, name, module):
        self.names.append(name)
        self.module_index.append(module)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, module, name, fn):
        """A wrapper that records a span named `<module>.<name>` per call."""
        key = f"{module}.{name}"
        idx = self._index(key, module)
        hook = HOOKS.get(key)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [idx, module, clock(), 0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(frame, clock(), exc)
                raise
            tracer._close(frame, clock())
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def _close(self, frame, end, exc=None):
        self.stack.pop()
        idx, module, start, child, span_id = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if exc is not None and self._last_raised.get(module) is not exc:
            # once per module the error passes through, however many of
            # its wrappers it unwinds
            self._last_raised[module] = exc
            self.raised[module] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, idx, start, end, parent[4] if parent else -1, self.task))
        else:
            self.dropped += 1

    def install(self):
        targets = {}
        for short in MODULES:
            module = self.modules[short]
            for name, obj in list(vars(module).items()):
                if _is_traced(module, name, obj):
                    targets[id(obj)] = (obj, self.wrap(short, name, obj))
        namespaces = [self.package, *(m for m in vars(self.package).values() if type(m) is type(self.package))]
        for ns in namespaces:
            if not ns.__name__.startswith(self.package.__name__):
                continue
            for attr, val in list(vars(ns).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, val))

    def uninstall(self):
        for ns, attr, val in self._patched:
            setattr(ns, attr, val)
        self._patched.clear()

    def metrics(self, task_s):
        by_name = {n: i for i, n in enumerate(self.names)}
        out = {}
        module_self = defaultdict(float)
        for i, name in enumerate(self.names):
            module_self[self.module_index[i]] += self.self_s[i]
        for metric, _, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric in self.counters:
                out[metric] = self.counters[metric]
            elif field == "self_s" and base in MODULES:
                out[metric] = module_self[base]
            elif field == "raised":
                out[metric] = self.raised[base]
            elif field in ("self_s", "calls") and base in by_name:
                i = by_name[base]
                out[metric] = self.self_s[i] if field == "self_s" else self.calls[i]
            else:
                out[metric] = 0
        out["trace.task_s"] = task_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["id", "name", "start", "end", "parent", "task"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                fh,
            )
