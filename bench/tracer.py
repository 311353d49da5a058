"""Per-layer spans recorded from outside the library.

The tracer replaces the public functions and methods of each layer with
timing wrappers.  Modules that import a function by name hold their own
reference to it (``levicivita`` and ``cli`` import ``compute_F``,
``torsion``, ``render_element`` and others that way), so every attribute
of every loaded ``nctorus`` module that refers to the original function
is replaced, not only the one in the defining module.

Spans are aggregated in memory per operation: calls, self time (the
span's duration minus the time its child spans cover) and inclusive time.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span name, owner inside the package, attribute)
TARGETS = (
    ("algebra.mul", "algebra.AlgebraElement", "__mul__"),
    ("algebra.add", "algebra.AlgebraElement", "__add__"),
    ("algebra.star", "algebra.AlgebraElement", "star"),
    ("algebra.derive", "algebra.AlgebraElement", "derive"),
    ("metric.invert_metric", "metric", "invert_metric"),
    ("metric.validate", "metric", "validate"),
    ("metric.weak_symmetry_defect", "metric", "weak_symmetry_defect"),
    ("forms.d", "forms.KForm", "d"),
    ("levicivita.build_levi_civita", "levicivita", "build_levi_civita"),
    ("levicivita.params_validated", "levicivita.SolverParams", "validated"),
    ("levicivita.compute_F", "levicivita", "compute_F"),
    ("levicivita.solvability_check", "levicivita", "solvability_check"),
    ("levicivita.solve_R", "levicivita", "solve_R"),
    ("levicivita.assemble_U", "levicivita", "assemble_U"),
    ("levicivita.verify_levi_civita", "levicivita", "verify_levi_civita"),
    ("connections.torsion", "connections", "torsion"),
    ("connections.compat_defect", "connections", "compat_defect"),
    ("connections.lc_characterization_check", "connections", "lc_characterization_check"),
    ("expr.parse_element", "expr", "parse_element"),
    ("expr.render_element", "expr", "render_element"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.run", "cli", "run"),
    ("cli.emit_report", "cli", "emit_report"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# The solver stages: params validation, d(rho), F, solvability, R, U, verify.
STAGES = (
    "levicivita.params_validated",
    "metric.weak_symmetry_defect",
    "levicivita.compute_F",
    "levicivita.solvability_check",
    "levicivita.solve_R",
    "levicivita.assemble_U",
    "levicivita.verify_levi_civita",
)
BUILD = "levicivita.build_levi_civita"
VERIFY = "levicivita.verify_levi_civita"
MUL = "algebra.mul"


def _resolve(nc, path):
    module, _, cls = path.partition(".")
    owner = sys.modules.get("%s.%s" % (nc.__name__, module))
    if owner is not None and cls:
        owner = getattr(owner, cls)
    return owner


def flat_terms(x):
    """Number of (U-monomial, q-monomial) terms of an element.

    Also counts an element whose terms map straight to scalar coefficients
    (one term each), so the count survives a flat term representation.
    """
    return sum(len(getattr(c, "terms", (c,))) for c in x.terms.values())


class Tracer:
    """Installs span wrappers into a loaded ``nctorus`` package."""

    def __init__(self, nc):
        self.nc = nc
        self.ops = []
        self.op = None
        self.spans = None
        self.stack = []
        self.builds = 0  # open build_levi_civita spans
        self.term_pairs = 0
        self.out_terms = 0
        self._patched = []

    # -- installation ------------------------------------------------------------

    def install(self):
        modules = [
            module
            for name, module in sys.modules.items()
            if name == self.nc.__name__ or name.startswith(self.nc.__name__ + ".")
        ]
        for name, path, attr in TARGETS:
            owner = _resolve(self.nc, path)
            if owner is None:  # e.g. nctorus.cli, when the workload never loads it
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        stack = self.stack
        is_mul = name == MUL
        is_build = name == BUILD
        is_verify = name == VERIFY
        element_type = self.nc.algebra.AlgebraElement
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if is_build:
                tracer.builds += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if is_build:
                    tracer.builds -= 1
                elif is_verify and tracer.builds:
                    tracer.op["verify_in_build_s"] += duration
                record = tracer.spans.get(name)
                if record is None:
                    record = tracer.spans[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration - frame[0]
                record[2] += duration
            if is_mul and isinstance(args[1], element_type):
                tracer.term_pairs += flat_terms(args[0]) * flat_terms(args[1])
                tracer.out_terms += flat_terms(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-operation aggregation ---------------------------------------------------

    def begin_op(self, stratum, cand):
        self.spans = {}
        self.op = {"stratum": stratum, "cand": cand, "spans": self.spans, "verify_in_build_s": 0.0}
        self.ops.append(self.op)

    def totals(self):
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for op in self.ops:
            for name, (calls, self_s, incl_s) in op["spans"].items():
                rec = out[name]
                rec[0] += calls
                rec[1] += self_s
                rec[2] += incl_s
        return out

    def useful_call_frac(self, strata):
        """Distinct stages an operation needed / stage calls it made, summed
        over the operations of the given strata."""
        needed = calls = 0
        for op in self.ops:
            if op["stratum"] not in strata:
                continue
            counts = [op["spans"].get(stage, (0,))[0] for stage in STAGES]
            needed += sum(1 for c in counts if c)
            calls += sum(counts)
        return needed / calls if calls else 0.0

    def metrics(self, strata, useful_strata):
        """Span totals over all operations; the two stage ratios over the
        operations of ``strata`` (``useful_call_frac`` over ``useful_strata``)."""
        totals = self.totals()
        out = {}
        for name in SPAN_NAMES:
            calls, self_s, _ = totals[name]
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
        out["algebra.mul.term_pairs"] = (self.term_pairs, "count")
        out["algebra.mul.out_terms"] = (self.out_terms, "count")
        out["levicivita.useful_call_frac"] = (
            self.useful_call_frac(useful_strata),
            "ratio",
        )
        ops = [op for op in self.ops if op["stratum"] in strata]
        build_s = sum(op["spans"].get(BUILD, (0, 0.0, 0.0))[2] for op in ops)
        verify_s = sum(op["verify_in_build_s"] for op in ops)
        out["levicivita.verify_share"] = (verify_s / build_s if build_s else 0.0, "ratio")
        return out
