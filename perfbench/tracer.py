"""Outside-in tracer for kgsym.

`Tracer.install` wraps the package's public callables from outside: module
functions are rebound in every kgsym module that imported them by name, and
methods are replaced on their class. Each wrapped call is a span. Spans are
aggregated in memory as they close, because the polynomial layers make
millions of them:

* per span group: calls, self time (span time minus the time covered by
  child spans) and inclusive time of the outermost span of the group;
* per (caller group, callee group) edge: calls and inclusive time, which
  keeps the span that caused each span;
* exact work counters read from arguments and results.

The caller of a top-level span is `<pass>`. Counter hooks run outside every
span's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__neg__", "__pow__")
VERIFY_CHECKS = ("dimension_tables", "adjoint_parity", "centrality",
                 "structure_constants", "variational_parity",
                 "reduced_lift_remark", "conservation", "generating_action",
                 "counting", "independence", "parser_round_trip")
COUNTERS = ("arith.nullspace.cells", "arith.nullspace.nnz",
            "arith.nullspace.kernel_dim", "symmetry.assemble.unknowns",
            "symmetry.basis_dim", "opalg.compose.out_terms", "parser.chars")
LAYERS = ("arith", "opalg", "jet", "symmetry", "noether", "parser", "cli",
          "verify")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_nullspace(tracer, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    counters = tracer.counters
    counters["arith.nullspace.cells"] += m.rows * m.cols
    counters["arith.nullspace.nnz"] += sum(1 for row in m.entries
                                           for v in row if v)
    counters["arith.nullspace.kernel_dim"] += len(result)


def _count_assemble(tracer, args, kwargs, result):
    tracer.counters["symmetry.assemble.unknowns"] += len(result.unknowns)


def _count_solve(tracer, args, kwargs, result):
    tracer.counters["symmetry.basis_dim"] += len(result.elements)


def _count_compose(tracer, args, kwargs, result):
    tracer.counters["opalg.compose.out_terms"] += len(result.terms)


def _count_parse(tracer, args, kwargs, result):
    tracer.counters["parser.chars"] += len(_arg(args, kwargs, 0, "text"))


def _request_solve(tracer, args, kwargs, result):
    tracer.requested_pairs.add((_arg(args, kwargs, 0, "n"),
                                _arg(args, kwargs, 1, "d")))


def _request_graded(tracer, args, kwargs, result):
    # The graded dimension of order n is a difference of the cumulative
    # dimensions of orders n and n - 1 at the same degree bound.
    n, d = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "d")
    tracer.requested_pairs.add((n, d))
    if n >= 1:
        tracer.requested_pairs.add((n - 1, d))


# (module, attribute, span group, counter hook). "Class.name" replaces a
# method on its class; a plain name is a module function.
TARGETS = (
    ("arith", "nullspace", "arith.nullspace", _count_nullspace),
    ("arith", "rank", "arith.rank", None),
    ("arith", "RationalMatrix.__init__", "arith.matrix", None),
    *(("arith", f"XYPoly.{op}", "arith.poly", None)
      for op in (*_RING_OPS, "diff")),

    ("opalg", "TDOperator.compose", "opalg.compose", _count_compose),
    ("opalg", "TDOperator.adjoint", "opalg.adjoint", None),
    ("opalg", "TDOperator.__str__", "opalg.print", None),
    *(("opalg", f"TDOperator.{op}", "opalg.ring", None)
      for op in ("__add__", "__sub__", "__neg__", "scale", "left_mul_poly")),
    ("opalg", "commutator", "opalg.ring", None),
    ("opalg", "basis_op", "opalg.basis", None),
    ("opalg", "monomial_op", "opalg.basis", None),
    ("opalg", "kg_operator", "opalg.basis", None),

    ("jet", "ReducedJetPoly.total_derivative", "jet.total_derivative", None),
    ("jet", "FreeJetPoly.total_derivative", "jet.total_derivative", None),
    ("jet", "euler_operator", "jet.euler", None),
    ("jet", "reduce", "jet.reduce", None),
    *(("jet", f"{cls}.{op}", "jet.poly", None)
      for cls in ("ReducedJetPoly", "FreeJetPoly")
      for op in (*_RING_OPS, "partial")),
    ("jet", "ReducedJetPoly.__str__", "jet.print", None),
    ("jet", "FreeJetPoly.__str__", "jet.print", None),
    ("jet", "apply_operator_reduced", "jet.apply", None),
    ("jet", "apply_operator_free", "jet.apply", None),
    ("jet", "iterated_derivative", "jet.iterated", None),
    ("jet", "reduced_J", "jet.iterated", None),
    ("jet", "eval_exp_family", "jet.eval", None),

    ("symmetry", "DeterminingSystem.assemble", "symmetry.assemble",
     _count_assemble),
    ("symmetry", "DeterminingSystem.solve", "symmetry.solve", _count_solve),
    ("symmetry", "is_generalized_symmetry", "symmetry.criterion", None),
    ("symmetry", "solve_linear_determining", "symmetry.request",
     _request_solve),
    ("symmetry", "graded_dimension", "symmetry.request", _request_graded),
    ("symmetry", "reduced_bracket", "symmetry.bracket", None),
    ("symmetry", "independence_rank", "symmetry.independence", None),

    ("noether", "current_C0", "noether.current", None),
    ("noether", "current_Ctilde", "noether.current", None),
    ("noether", "current_minimal", "noether.current", None),
    ("noether", "is_variational_linear", "noether.variational", None),
    ("noether", "is_cl_characteristic", "noether.cl_characteristic", None),
    ("noether", "symmetry_action_on_current", "noether.action", None),
    ("noether", "count_order_n_currents", "noether.count", None),
    ("noether", "onshell_divergence", "noether.divergence", None),
    ("noether", "lift_linear_characteristic", "noether.lift", None),

    ("parser", "parse_operator", "parser.parse", _count_parse),
    ("parser", "parse_jet", "parser.parse", _count_parse),

    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("cli", "Report.to_json", "cli.render", None),
    ("cli", "Report.to_text", "cli.render", None),

    ("verify", "run_all", "verify.run_all", None),
    *(("verify", f"check_{name}", f"verify.{name}", None)
      for name in VERIFY_CHECKS),
)

ROOT_GROUP = "<pass>"


def _kgsym_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "kgsym" or name.startswith("kgsym.")}


class Tracer:
    """Aggregated spans and work counters for one pass."""

    def __init__(self):
        self.groups = {}            # group -> [calls, self_s, total_s, depth]
        self.edges = {}             # (caller, callee) -> [calls, total_s]
        self.counters = defaultdict(int)
        self.requested_pairs = set()
        self.rebound = []           # "module.name" sites rebound to a wrapper
        self.missing = []           # targets absent from the package
        self._originals = {}        # id(function) -> function
        self._stack = [[ROOT_GROUP, 0.0]]

    def _wrap(self, fn, group, hook):
        stats = self.groups.setdefault(group, [0, 0.0, 0.0, 0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            stats[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if not stats[3]:
                    stats[2] += elapsed
                caller = stack[-1]
                caller[1] += elapsed
                edge = edges.get((caller[0], group))
                if edge is None:
                    edges[(caller[0], group)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(tracer, args, kwargs, result)
                stack[-1][1] += clock() - hook_start
            return result

        self._originals[id(fn)] = fn
        return traced

    def install(self):
        """Wrap every target; records the ones the package lacks."""
        modules = _kgsym_modules()
        for module_name, attribute, group, hook in TARGETS:
            module = modules.get(f"kgsym.{module_name}")
            owner, _, member = attribute.rpartition(".")
            qualified = f"kgsym.{module_name}.{attribute}"
            if owner:
                cls = getattr(module, owner, None)
                raw = vars(cls).get(member) if isinstance(cls, type) else None
                if raw is None:
                    self.missing.append(qualified)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(raw.__func__, group, hook))
                else:
                    wrapped = self._wrap(raw, group, hook)
                setattr(cls, member, wrapped)
                continue
            fn = getattr(module, attribute, None)
            if not callable(fn):
                self.missing.append(qualified)
                continue
            wrapped = self._wrap(fn, group, hook)
            for name, holder in modules.items():
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
                        self.rebound.append(f"{name}.{key}")

    def unwrapped_references(self):
        """kgsym module attributes and class members that still hold an
        original, unwrapped target; empty when coverage is complete."""
        found = []
        for name, module in _kgsym_modules().items():
            for key, value in vars(module).items():
                if self._is_original(value):
                    found.append(f"{name}.{key}")
                if (isinstance(value, type)
                        and value.__module__ == name):
                    for member, raw in vars(value).items():
                        if isinstance(raw, (classmethod, staticmethod)):
                            raw = raw.__func__
                        if self._is_original(raw):
                            found.append(f"{name}.{key}.{member}")
        return sorted(set(found))

    def _is_original(self, value):
        # Originals stay alive in _originals, so their ids are unique.
        return id(value) in self._originals

    def report(self) -> dict:
        return {
            "groups": {group: {"calls": s[0], "self_s": s[1], "total_s": s[2]}
                       for group, s in sorted(self.groups.items())},
            "edges": [{"caller": caller, "callee": callee, "calls": e[0],
                       "total_s": e[1]}
                      for (caller, callee), e in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "requested_pairs": sorted(self.requested_pairs),
            "rebound": sorted(self.rebound),
            "missing": self.missing,
            "unwrapped": self.unwrapped_references(),
        }
