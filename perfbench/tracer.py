"""Per-layer tracing from outside the engine.

``Tracer.install()`` replaces every public function of each qeskit layer
module, at every module-level binding of it (``poly_gcd`` is bound in
``scalars``, ``quadext`` and ``sturm``), plus ``ParamScalar.__init__``,
``RatFunc.__init__`` and ``MatOp.__mul__``, with a wrapper that records a
span; ``uninstall()`` puts the originals back.  Nothing inside ``src/``
changes.

Self time of a span is its duration minus the durations of the spans it
contains, and the tracer's own bookkeeping is charged to neither.  A call
made while a span of the same name is open (a recursive or re-entrant
call) opens no span: only outermost spans are counted.  ``poly_gcd`` spans
are named by coefficient type: ``scalars.poly_gcd.q`` for Fraction
coefficients (ParamScalar normalisation) and ``scalars.poly_gcd.qa`` for
ParamScalar coefficients (RatFunc normalisation), and qa spans contain q
spans.

The scalar layer's dense-polynomial and coercion helpers are not wrapped:
they run millions of times per task and their cost stays with the caller.
"""

from __future__ import annotations

import array
import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "operators", "spaces", "probe", "quadext", "linalg",
          "sturm", "dsl", "cli")
SCALAR_WRAPPED = frozenset({"poly_gcd"})
ALIASES = {
    "dsl.eval_ladder": "dsl.eval",
    "dsl.eval_quad": "dsl.eval",
    "dsl.parse_space_or_quad": "dsl.parse_space",
}
METHODS = (("scalars", "ParamScalar", "__init__", "scalars.ParamScalar.new"),
           ("scalars", "RatFunc", "__init__", "scalars.RatFunc.new"),
           ("quadext", "MatOp", "__mul__", "quadext.MatOp.mul"))
CELL_SPANS = frozenset({"linalg.nullspace", "linalg.solve_exact",
                        "linalg.char_poly"})
GCD_Q, GCD_QA = "scalars.poly_gcd.q", "scalars.poly_gcd.qa"
MAX_SPANS = 200_000  # spans kept for the span file; all are aggregated


def _bits(coeffs) -> int:
    """Largest numerator/denominator bit length among Fraction or
    ParamScalar coefficients."""
    best = 0
    for c in coeffs:
        parts = (c,) if not hasattr(c, "num") else c.num + c.den
        for f in parts:
            best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.task = 0
        self._open = defaultdict(int)   # name -> open spans of that name
        self._stack = []                # [span id, ns covered by children]
        self._next_id = 0
        self._names: dict[str, int] = {}
        self.spans = array.array("q")   # task, id, parent, name, start, end
        self.dropped = 0
        self._saved = []

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {name: sys.modules[f"qeskit.{name}"] for name in LAYERS}
        targets = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "scalars" and name not in SCALAR_WRAPPED:
                    continue
                key = ALIASES.get(f"{layer}.{name}", f"{layer}.{name}")
                targets[id(fn)] = self._wrap(key, fn)
        holders = [m for n, m in sys.modules.items()
                   if n == "qeskit" or n.startswith("qeskit.")]
        for mod in holders:
            for name, val in list(vars(mod).items()):
                if id(val) in targets:
                    self._saved.append((mod, name, val))
                    setattr(mod, name, targets[id(val)])
        for layer, cls_name, meth, key in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(key, orig))

    def uninstall(self):
        for holder, name, val in reversed(self._saved):
            setattr(holder, name, val)
        self._saved.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, key: str, fn):
        tr = self
        clock = time.perf_counter_ns
        is_gcd = key == "scalars.poly_gcd"
        is_ratfunc = key == "scalars.RatFunc.new"
        is_cells = key in CELL_SPANS

        def wrapper(*args, **kw):
            name = key
            outer_gcd = False
            enter = clock()
            if is_gcd:
                coeffs = args[0] or args[1]
                name = GCD_QA if coeffs and hasattr(coeffs[0], "num") else GCD_Q
                outer_gcd = not (tr._open[GCD_Q] or tr._open[GCD_QA])
                tr.max_bits = max(tr.max_bits, _bits(args[0]), _bits(args[1]))
            if tr._open[name]:
                return fn(*args, **kw)
            if is_cells and args[0]:
                tr.counts["linalg.cells"] += len(args[0]) * len(args[0][0])
            tr._open[name] += 1
            stack = tr._stack
            parent = stack[-1] if stack else None
            frame = [tr._next_id, 0]
            tr._next_id += 1
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kw)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                tr._open[name] -= 1
                tr.calls[name] += 1
                tr.self_ns[name] += t1 - t0 - frame[1]
                tr.total_ns[name] += t1 - t0
                if ok and outer_gcd:
                    tr.counts["gcd.outer"] += 1
                    tr.counts["gcd.nontrivial"] += len(out) > 1
                if ok and is_ratfunc:
                    den = args[0].den
                    cls = ("den_one" if len(den) == 1 else
                           "den_laurent" if not any(den[:-1]) else "den_other")
                    tr.counts[cls] += 1
                if len(tr.spans) < 6 * MAX_SPANS:
                    tr.spans.extend((tr.task, frame[0],
                                     parent[0] if parent else -1,
                                     tr._name_id(name), t0, t1))
                else:
                    tr.dropped += 1
                if parent is not None:
                    parent[1] += clock() - enter
            return out

        return wrapper

    def _name_id(self, name: str) -> int:
        i = self._names.get(name)
        if i is None:
            i = self._names[name] = len(self._names)
        return i

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return out

    def write_spans(self, path):
        """Kept spans as gzip TSV: task, span, parent, name, start_ns, end_ns."""
        names = {i: n for n, i in self._names.items()}
        with gzip.open(path, "wt") as fh:
            fh.write("task\tspan\tparent\tname\tstart_ns\tend_ns\n")
            s = self.spans
            for i in range(0, len(s), 6):
                fh.write(f"{s[i]}\t{s[i+1]}\t{s[i+2]}\t{names[s[i+3]]}\t"
                         f"{s[i+4]}\t{s[i+5]}\n")
