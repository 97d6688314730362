"""In-process tracing of mobiusdyn from outside the package.

Tracer.installed() replaces each public function listed in TARGETS by a
timing wrapper, under every name any mobiusdyn module bound it to (the
callers' `from .x import f` copies included), and puts the originals back on
exit.  Spans are kept in memory as [name, start, end, parent, run id, info];
info holds counts read from arguments and return values.  Per-term callables
(mobius_oracle, psi, the CLI's nu/F handles, unit_circle) are not wrapped:
their cost lands in the self time of the function that calls them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import sys
import time


def _terms(result, args):
    return {"terms": getattr(result, "term_count", 0)}


def _schedule_terms(result, args):
    return {"terms": max((r.term_count for r in result), default=0)}


def _decimated(result, args):
    traj = args.get("traj")
    return {"terms": getattr(result, "term_count", 0), "pole": traj is not None and not traj.pole_free}


# (module, attribute, count extractor taking (result, {parameter: argument}))
TARGETS = [
    ("field_arith", "mult_order", None),
    ("field_arith", "primitive_root", None),
    ("field_arith", "norm_group_generator", None),
    ("field_arith", "discrete_index", None),
    ("field_arith", "sqrt_mod", None),
    ("mobius_dynamics", "period", lambda r, a: {"steps": getattr(r, "period", 0)}),
    ("arith_fn", "mobius_sieve", lambda r, a: {"limit": getattr(r, "limit", 0)}),
    ("arith_fn", "MobiusTable.load", None),
    ("arith_fn", "primes_in", None),
    ("char_sums", "twisted_sum_schedule", _schedule_terms),
    ("char_sums", "correlation_sum", _decimated),
    ("char_sums", "single_sum", _decimated),
    ("char_sums", "weil_sum_fp", _terms),
    ("char_sums", "weil_sum_fp2_norm_one", _terms),
    ("bsz_harness", "prime_blocks", lambda r, a: {"blocks": len(r)}),
    ("bsz_harness", "sieve_sets", None),
    ("bsz_harness", "wj_sums", None),
    ("bsz_harness", "distinct_products_check", lambda r, a: {"products": getattr(r, "total_products", 0)}),
    ("bsz_harness", "decomposition_report", None),
    ("bsz_harness", "theorem_conditions", None),
    ("sampling", "random_admissible_instance", None),
    ("sampling", "random_rational_function_fp", None),
    ("sampling", "random_rational_function_fp2", None),
]

MODULES = ("field_arith", "mobius_dynamics", "arith_fn", "char_sums", "bsz_harness", "sampling", "cli_runner")
WRAPPED = "__perfbench_original__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, {}])
        self._stack.append(idx)
        try:
            yield self.spans[idx][5]
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, count):
        tracer = self
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with tracer.span(name) as info:
                result = fn(*args, **kwargs)
                if count is not None:
                    info.update(count(result, signature.bind(*args, **kwargs).arguments))
                return result

        setattr(wrapper, WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        modules = [importlib.import_module(f"mobiusdyn.{m}") for m in MODULES]
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, count in TARGETS:
                module = sys.modules[f"mobiusdyn.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:  # a classmethod: rebind on the class itself
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = vars(cls).get(meth) if cls is not None else None
                    if not isinstance(raw, classmethod):
                        self.missing.append(name)
                        continue
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, count)))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module busy/self times and counts from one traced pass."""
    dur = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, *_) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    def outermost(i: int) -> bool:
        layer, parent = _layer(spans[i][0]), spans[i][3]
        while parent is not None:
            if _layer(spans[parent][0]) == layer:
                return False
            parent = spans[parent][3]
        return True

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in named(name))

    def info_sum(name, key):
        return sum(spans[i][5].get(key, 0) for i in named(name))

    out: dict[str, float] = {}
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(self_time[i] for i, s in enumerate(spans) if _layer(s[0]) == layer)

    sieves, loads = named("arith_fn.mobius_sieve"), named("arith_fn.MobiusTable.load")
    out["arith_fn.mobius_sieve_s"] = total("arith_fn.mobius_sieve")
    out["arith_fn.sieve_limit"] = max((spans[i][5].get("limit", 0) for i in sieves), default=0)
    out["arith_fn.table_load_s"] = total("arith_fn.MobiusTable.load")
    out["arith_fn.mu_cache_hit_ratio"] = len(loads) / (len(loads) + len(sieves)) if loads or sieves else 0.0
    out["arith_fn.primes_in_s"] = total("arith_fn.primes_in")

    steps = info_sum("mobius_dynamics.period", "steps")
    out["mobius_dynamics.period_s"] = total("mobius_dynamics.period")
    out["mobius_dynamics.period_calls"] = len(named("mobius_dynamics.period"))
    out["mobius_dynamics.period_steps"] = steps
    out["mobius_dynamics.period_us_per_step"] = out["mobius_dynamics.period_s"] / steps * 1e6 if steps else 0.0

    field_spans = [i for i, s in enumerate(spans) if _layer(s[0]) == "field_arith"]
    out["field_arith.busy_s"] = sum(dur[i] for i in field_spans if outermost(i))
    out["field_arith.calls"] = len(field_spans)

    terms = info_sum("char_sums.twisted_sum_schedule", "terms")
    out["char_sums.twisted_s"] = total("char_sums.twisted_sum_schedule")
    out["char_sums.twisted_terms"] = terms
    out["char_sums.twisted_ns_per_term"] = out["char_sums.twisted_s"] / terms * 1e9 if terms else 0.0
    out["char_sums.correlation_s"] = total("char_sums.correlation_sum")
    out["char_sums.single_s"] = total("char_sums.single_sum")
    decimated = ("char_sums.correlation_sum", "char_sums.single_sum")
    out["char_sums.decimated_terms"] = sum(info_sum(n, "terms") for n in decimated)
    out["char_sums.pole_fallback_calls"] = sum(info_sum(n, "pole") for n in decimated)
    out["char_sums.weil_fp_s"] = total("char_sums.weil_sum_fp")
    out["char_sums.weil_fp2_s"] = total("char_sums.weil_sum_fp2_norm_one")
    weil = ("char_sums.weil_sum_fp", "char_sums.weil_sum_fp2_norm_one")
    out["char_sums.weil_terms"] = sum(info_sum(n, "terms") for n in weil)
    out["char_sums.weil_fp_calls"] = len(named("char_sums.weil_sum_fp"))

    out["bsz_harness.prime_blocks_s"] = total("bsz_harness.prime_blocks")
    out["bsz_harness.sieve_sets_s"] = total("bsz_harness.sieve_sets")
    out["bsz_harness.wj_sums_s"] = total("bsz_harness.wj_sums")
    out["bsz_harness.products_check_s"] = total("bsz_harness.distinct_products_check")
    out["bsz_harness.lhs_s"] = sum(self_time[i] for i in named("bsz_harness.decomposition_report"))
    out["bsz_harness.conditions_s"] = total("bsz_harness.theorem_conditions")
    out["bsz_harness.blocks"] = info_sum("bsz_harness.prime_blocks", "blocks")
    out["bsz_harness.products"] = info_sum("bsz_harness.distinct_products_check", "products")

    sampling = [i for i, s in enumerate(spans) if _layer(s[0]) == "sampling"]
    parents = [spans[i][3] for i in named("mobius_dynamics.period")]
    sampled_periods = sum(1 for j in parents if j is not None and _layer(spans[j][0]) == "sampling")
    out["sampling.draw_s"] = sum(dur[i] for i in sampling if outermost(i))
    drawn = len(named("sampling.random_admissible_instance"))
    out["sampling.accept_ratio"] = drawn / sampled_periods if sampled_periods else 0.0
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
