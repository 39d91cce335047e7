"""Per-layer tracer for one grothpoly process.

`install()` wraps the public functions of each grothpoly module from the
outside: no code under src/ knows about it.  A wrapped function replaces the
original in every grothpoly module namespace that holds it, because
`grothendieck` and `cli` import `det`, `h_pleth` and others by name.

Each wrapped call is a span.  A span stack gives self time: a group's
`self_s` is the time its spans were open minus the time of the wrapped spans
they caused, so no layer is charged for its wrapped children.  Counts are
taken at the same boundaries.  Generators are not spans; only their yields
are counted.
"""

import functools
import importlib
import time
from collections import defaultdict

# Span groups: group -> (module, function names) whose calls it times.
SPAN_GROUPS = {
    "ring.mul": ("ring", ()),  # TruncPoly.__mul__ and __rmul__
    "ring.det": ("ring", ("det",)),
    "ring.exact_divide": ("ring", ("exact_divide",)),
    "ring.specialize": ("ring", ()),  # TruncPoly.specialize
    "symfunc.pleth": ("symfunc", ("h_pleth", "e_pleth")),
    "symfunc.ominus": ("symfunc", ("h_ominus", "e_ominus")),
    "grothendieck.jt": ("grothendieck", (
        "G_jt", "g_jt", "G_jt_modified", "g_jt_modified")),
    "grothendieck.bialternant": ("grothendieck", (
        "G_bialternant", "g_bialternant")),
    "grothendieck.flagged": ("grothendieck", (  # and FlagSweep.value
        "G_flagged_det", "g_flagged_det", "g_marked_det", "matsumura_det")),
    "grothendieck.coeff": ("grothendieck", (
        "C_coeff", "c_coeff", "hall_pairing", "skew_coeff")),
    "grothendieck.expansion": ("grothendieck", (
        "skew_schur_expansion", "omega_check", "schur_in_grothendieck",
        "cauchy_check")),
    "tableaux.enum": ("tableaux", (
        "enum_mmsvt", "enum_mrpp", "enum_elegant", "enum_fsvt")),
    "lgv.paths": ("lgv", ("nonintersecting_coeff",)),
    "cli.render": ("cli", ("render_poly",)),
}

# Generators whose yields make up tableaux.gen.yields.
GENERATORS = ("tableaux", (
    "gen_mmsvt", "gen_rpp", "gen_mrpp", "gen_elegant", "gen_fsvt"))

MODULES = ("ring", "symfunc", "grothendieck", "tableaux", "lgv", "cli")

# Every per-layer metric a traced run reports, with its unit.
COUNT_METRICS = ["ring.mul.pairs", "ring.mul.out_terms", "ring.det.max_order",
                 "tableaux.gen.yields", "cli.render.bytes"]
RATIO_METRICS = ["ring.mul.yield", "symfunc.pleth.repeat_ratio"]


def metric_units():
    units = {}
    for group in SPAN_GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_pct"] = "%"
    for name in COUNT_METRICS:
        units[name] = "count"
    for name in RATIO_METRICS:
        units[name] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Span stack and counters for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.pleth_repeats = 0
        self._pleth_seen = set()
        # time covered by the wrapped children of each open span; [0] is
        # the root, which no group owns
        self._stack = [0.0]

    def span(self, group, fn, after=None):
        """Wrap fn so that each call is a span of group; after(args,
        result) records counts once the call returns."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[group] += duration - stack.pop()
                stack[-1] += duration
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _yields(self, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts["tableaux.gen.yields"] += 1
                yield item
        return wrapper

    # count hooks -----------------------------------------------------------

    def _after_mul(self, args, result):
        left, right = args
        width = int(right != 0) if isinstance(right, int) \
            else len(right.terms)
        self.counts["ring.mul.pairs"] += len(left.terms) * width
        self.counts["ring.mul.out_terms"] += len(result.terms)

    def _after_det(self, args, result):
        key = "ring.det.max_order"
        self.counts[key] = max(self.counts[key], len(args[0]))

    def _pleth(self, fn):
        # a repeat is a call whose arguments an earlier call in this process
        # already used; the symfunc alphabet cache serves those
        seen = self._pleth_seen
        inner = self.span("symfunc.pleth", fn)

        @functools.wraps(fn)
        def wrapper(*args):
            key = (fn.__name__, args)
            if key in seen:
                self.pleth_repeats += 1
            else:
                seen.add(key)
            return inner(*args)
        return wrapper

    def _after_render(self, args, result):
        self.counts["cli.render.bytes"] += len(result.encode())

    # -----------------------------------------------------------------------

    def install(self):
        """Wrap every traced function, in every grothpoly namespace that
        imported it, and the TruncPoly and FlagSweep methods."""
        mod = {name: importlib.import_module(f"grothpoly.{name}")
               for name in MODULES}
        after = {"ring.det": self._after_det,
                 "cli.render": self._after_render}
        replace = {}
        for group, (module, names) in SPAN_GROUPS.items():
            for name in names:
                fn = getattr(mod[module], name)
                if group == "symfunc.pleth":
                    replace[id(fn)] = (fn, self._pleth(fn))
                else:
                    replace[id(fn)] = (fn, self.span(group, fn,
                                                     after.get(group)))
        module, names = GENERATORS
        for name in names:
            fn = getattr(mod[module], name)
            replace[id(fn)] = (fn, self._yields(fn))
        for module in mod.values():
            for name, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

        poly = mod["ring"].TruncPoly
        mul = self.span("ring.mul", poly.__mul__, self._after_mul)
        poly.__mul__ = mul
        poly.__rmul__ = mul
        poly.specialize = self.span("ring.specialize", poly.specialize)
        sweep = mod["grothendieck"].FlagSweep
        sweep.value = self.span("grothendieck.flagged", sweep.value)

    def report(self):
        """This process's raw counts and self times; combine() turns the
        reports of a pass's processes into the per-layer metrics."""
        out = {}
        for group in SPAN_GROUPS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_s[group]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        out["symfunc.pleth.repeats"] = self.pleth_repeats
        return out


def combine(reports, wall_s):
    """Sum the reports of several processes that together took wall_s, and
    derive the ratios.  Self time becomes a share of wall_s: a layer that
    the processes never reached reads 0%."""
    total = defaultdict(float)
    for rep in reports:
        for name, value in rep.items():
            if name == "ring.det.max_order":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    out = {}
    for name, value in total.items():
        if name.endswith(".self_s"):
            out[name[:-len("self_s")] + "self_pct"] = 100 * value / wall_s
        else:
            out[name] = int(value)
    pairs = out["ring.mul.pairs"]
    out["ring.mul.yield"] = out["ring.mul.out_terms"] / pairs if pairs else 0.0
    calls = out["symfunc.pleth.calls"]
    repeats = out.pop("symfunc.pleth.repeats")
    out["symfunc.pleth.repeat_ratio"] = repeats / calls if calls else 0.0
    out["trace.wall_s"] = wall_s
    return out
