"""Per-layer tracing of degenlab from outside the package.

``Tracer.install`` wraps the public functions of every degenlab module, plus
three methods, and puts each wrapper in place of the original under every
name that refers to it, in every degenlab module (``degenlab.holder.assemble``
and ``degenlab.cli.assemble`` as well as ``degenlab.assembly.assemble``) and
in the ``cli.COMMANDS`` table.  ``uninstall`` puts the originals back, so
untraced invocations run the program unchanged.

A wrapped call records a span (name, start, end, parent span, invocation)
in memory.  The hot leaf calls in ``COUNT_ONLY`` are only counted: their
time stays in the self time of the span that called them.  ``metrics``
turns the spans and counters of one invocation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("weights", "potentials", "certify", "geometry", "assembly", "ratio",
           "holder", "spectral", "cli")

# (module, class, method) wrapped on the class itself
METHODS = (("assembly", "AssembledOperator", "rhs"),
           ("assembly", "RhoWeight", "resistance_y"),
           ("weights", "CharacteristicSolution", "segment_integral"))

# library functions imported into a module's namespace, counted per module
EXTERNAL = (("weights", "quad"), ("weights", "hyp2f1"), ("potentials", "quad"))

# Called thousands to hundreds of thousands of times per invocation: a span
# each would cost more than the work it measures.
COUNT_ONLY = {"weights.quad", "weights.hyp2f1", "potentials.quad",
              "weights.segment_integral", "assembly.resistance_y",
              "potentials.gamma_small", "potentials.w_deep", "potentials.v_limit",
              "weights.chi", "weights.rho", "weights.v_char", "cli.fmt"}

# The per-layer metrics the benchmark reports, with their units.  Each is
# reported on every workload; a layer a workload does not reach reads 0.
PER_LAYER = tuple((name, unit) for unit, names in (
    ("count", ("weights.quad.calls", "weights.segment_integral.calls",
               "weights.v_char_profile.calls", "weights.hyp2f1.calls",
               "assembly.assemble.calls", "assembly.resistance_y.calls",
               "assembly.solve_linear.calls", "assembly.solve_linear.iterations",
               "assembly.solve_linear.iterations_max",
               "assembly.solve_linear.direct.calls", "assembly.solve_linear.cg.calls",
               "spectral.min_rayleigh.calls", "spectral.min_rayleigh.iterations",
               "spectral.trace_eigen.calls", "potentials.v_limit.calls",
               "potentials.quad.calls", "potentials.gamma_small.calls",
               "potentials.w_deep.calls", "certify.certify_infimum.calls",
               "certify.samples")),
    ("ratio", ("certify.samples_per_target_call",)),
    ("s", ("weights.v_char_profile.s", "assembly.assemble.s", "assembly.assemble.self_s",
           "assembly.rhs.s", "assembly.solve_linear.s", "geometry.build_half_grid.s",
           "ratio.ratio_field.s", "holder.epsilon_sweep.s", "holder.epsilon_sweep.self_s",
           "holder.holder_seminorm.s", "spectral.min_rayleigh.s",
           "spectral.assemble_forms.s", "spectral.assemble_arc_mass.s",
           "potentials.potentials.s", "certify.certify_infimum.s", "certify.v_minimum.s",
           "cli.sweep.s", "cli.solve.s", "cli.eigen.s", "cli.certify.s",
           *(f"{m}.self_s" for m in MODULES), "trace.wall_s", "trace.overhead_s")),
) for name in names)


class Tracer:
    def __init__(self):
        self.invocation = 0
        self.spans: list = []      # [name, start, end, parent index, invocation]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.values: Counter = Counter()   # work reported in return values
        self._restore: list = []
        # called with the arguments before, and the result after, a spanned call
        self._before = {"certify.certify_infimum": self._count_target_calls}
        self._after = {"assembly.solve_linear": self._solve_linear_done,
                       "spectral.min_rayleigh": self._min_rayleigh_done,
                       "certify.certify_infimum": self._certify_done}

    # -- wrappers ---------------------------------------------------------

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, name):
        stack = self.stack
        pre, post = self._before.get(name), self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            spans = self.spans
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.invocation]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(out)
            return out
        return wrapper

    def _wrap(self, fn, name):
        return (self._counted if name in COUNT_ONLY else self._spanned)(fn, name)

    # work carried in return values and arguments

    def _solve_linear_done(self, rep):
        v = self.values
        v["assembly.solve_linear.iterations"] += rep.iterations
        key = "assembly.solve_linear.iterations_max"
        v[key] = max(v[key], rep.iterations)
        v[f"assembly.solve_linear.{rep.method.split('-')[0]}.calls"] += 1

    def _min_rayleigh_done(self, out):
        self.values["spectral.min_rayleigh.iterations"] += out[3]

    def _certify_done(self, rep):
        self.values["certify.samples"] += rep.samples_used

    def _count_target_calls(self, args, kwargs):
        if args:
            return (self._counted(args[0], "certify.target"),) + args[1:], kwargs
        return args, {**kwargs, "f": self._counted(kwargs["f"], "certify.target")}

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: sys.modules["degenlab." + m] for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for m, name in EXTERNAL:
            mod = mods[m]
            self._set(mod, name, self._counted(getattr(mod, name), f"{m}.{name}"))
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], f"{m}.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "degenlab" and not modname.startswith("degenlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._set(mod, attr, replace[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in replace:
                            self._restore.append((val.__setitem__, k, v))
                            val[k] = replace[id(v)]

    def _set(self, obj, attr, new):
        self._restore.append((functools.partial(setattr, obj), attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for setter, key, old in reversed(self._restore):
            setter(key, old)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts.clear()
        self.values.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counters recorded since reset."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_t = Counter(), Counter(), Counter()
        module_self = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            own = (t1 - t0) - child[i]
            self_t[name] += own
            module_self[name.split(".")[0]] += own
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_t[name]
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        for m in MODULES:
            out[f"{m}.self_s"] = module_self[m]
        for name in calls:
            if name.startswith("cli.cmd_"):
                out[f"cli.{name[8:].replace('_', '-')}.s"] = incl[name]
        out.update(self.values)
        target = self.counts["certify.target"]
        out["certify.samples_per_target_call"] = (
            self.values["certify.samples"] / target if target else 0.0)
        return out


def median_metrics(per_invocation: list) -> dict:
    """Median of each metric over traced invocations of the same inputs;
    a count that repeats exactly stays a whole number."""
    out = {}
    for k in set().union(*per_invocation):
        vals = [m.get(k, 0) for m in per_invocation]
        out[k] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out
