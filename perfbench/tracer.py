"""Per-layer tracing installed from outside the program.

Tracer.install() replaces functions and methods of the fukaya_flow
modules with wrappers: module attributes, class methods, and every name
another module bound with `from .x import y`, so a call reaches the
wrapper whichever way the caller looks the function up.  Nothing under
src/ is edited.

Two kinds of wrapper:

- a span records (name, parent span, start, end) for one call;
- a counter only counts calls.  Hot helpers are counted, not spanned,
  so the trace stays small and cheap; their time belongs to the self
  time of the span that called them.

Spans are kept in memory and reduced to per-layer numbers only when
report() is called at the end of the run.  Self time of a span is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric -> (kind, module, attribute path).  Kind "ms" is mean self time
# per operation of the span, "calls" the mean call count per operation.
METRICS = {
    "links.parse_pd_ms": ("ms", "links", "parse_pd"),
    "links.linking_matrix_ms": ("ms", "links", "linking_matrix"),
    "links.crossing_components_calls":
        ("calls", "links", "LinkDiagram.crossing_components"),
    "homology.complement_homology_ms":
        ("ms", "homology", "complement_homology"),
    "homology.canonicalize_calls":
        ("calls", "homology", "F2Presentation.canonicalize"),
    "f2.reduce_vector_calls": ("calls", "f2", "reduce_vector"),
    "f2.rref_ms": ("ms", "f2", "rref"),
    "f2.kernel_basis_ms": ("ms", "f2", "kernel_basis"),
    "flow.build_flow_category_ms": ("ms", "flow", "build_flow_category"),
    "flow.compose_calls":
        ("calls", "flow", "DirectedCategoryPresentation.compose"),
    "fukaya.build_fukaya_category_ms":
        ("ms", "fukaya", "build_fukaya_category"),
    "fukaya.compare_categories_ms": ("ms", "fukaya", "compare_categories"),
    # compose_cross is defined in flow; compare_categories is its caller
    "fukaya.compose_cross_calls":
        ("calls", "flow", "DirectedCategoryPresentation.compose_cross"),
    "quiver.from_category_ms": ("ms", "quiver", "from_category"),
    "quiver.regular_representation_ms":
        ("ms", "quiver", "regular_representation"),
    "quiver.check_relations_ms": ("ms", "quiver", "check_relations"),
    "quiver.isomorphic_ms": ("ms", "quiver", "isomorphic"),
    "morse.handle_complex_from_link_ms":
        ("ms", "morse", "handle_complex_from_link"),
    "morse.betti_by_degree_ms":
        ("ms", "morse", "CascadeComplex.betti_by_degree"),
    "morse.homology_basis_ms":
        ("ms", "morse", "CascadeComplex.homology_basis"),
    "morse.triangle_product_table_ms":
        ("ms", "morse", "triangle_product_table"),
    "morse.differential_case_I_ms": ("ms", "morse", "differential_case_I"),
    "morse.intersect_cell_groups_calls":
        ("calls", "morse", "intersect_cell_groups"),
    "geometry.p_image_errors_ms": ("ms", "geometry", "p_image_errors"),
    "geometry.roundtrip_errors_ms": ("ms", "geometry", "roundtrip_errors"),
    "geometry.mu_inv_calls": ("calls", "geometry", "mu_inv"),
    "cli.main_ms": ("ms", "cli", "main"),
}

# Further spans: layer entry points that are not metrics themselves but
# whose time must not land in a caller's self time.
EXTRA_SPANS = {
    "links": ("load_catalog", "fixture", "self_writhe"),
    "fukaya": ("verify_theorem_b",),
    "morse": ("standard_upper_pair", "standard_lower_pair"),
    "maslov": ("maslov_of_loop", "loop_degree", "winding_number",
               "glued_index", "solve_triangle_system",
               "vanishing_triangle_index", "figure_boundary_arcs"),
}

# Size counters, summed per operation from results and arguments.
SIZE_METRICS = ("links.crossings", "links.components", "morse.faces",
                "geometry.points")


def _sizes_parse_pd(args, kwargs, result):
    return {"links.crossings": len(result.crossings),
            "links.components": result.component_count}


def _sizes_handle_complex(args, kwargs, result):
    return {"morse.faces": sum(g.startswith("F^")
                               for g in result.generators)}


def _sizes_p_image(args, kwargs, result):
    names = ("rng", "grid_thetas", "lam_max", "lam_steps", "ef_samples")
    defaults = {"grid_thetas": 48, "lam_steps": 21, "ef_samples": 100}
    bound = dict(defaults, **dict(zip(names, args)), **kwargs)
    return {"geometry.points": (bound["grid_thetas"] * bound["lam_steps"]
                                * bound["ef_samples"])}


SIZE_HOOKS = {
    ("links", "parse_pd"): _sizes_parse_pd,
    ("morse", "handle_complex_from_link"): _sizes_handle_complex,
    ("geometry", "p_image_errors"): _sizes_p_image,
}


class Tracer:
    """Spans and counters of one run; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent, start, end]
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.ops = 0
        self.active = False
        self._stack: list[int] = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the fukaya_flow modules."""
        targets: dict[tuple[str, str], str] = {}
        for kind, module, path in METRICS.values():
            targets[(module, path)] = "span" if kind == "ms" else "count"
        for module, names in EXTRA_SPANS.items():
            for name in names:
                targets[(module, name)] = "span"
        wrapped = {}
        for (module, path), kind in targets.items():
            mod = importlib.import_module("fukaya_flow." + module)
            owner, attr = mod, path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(mod, cls)
            original = owner.__dict__[attr]
            name = "%s.%s" % (module, attr)
            if kind == "span":
                hook = SIZE_HOOKS.get((module, path))
                wrapper = self._span_wrapper(original, name, hook)
            else:
                wrapper = self._count_wrapper(original, name)
            setattr(owner, attr, wrapper)
            wrapped[id(original)] = (original, wrapper)
        # rebind names that other modules imported with `from .x import y`
        for modname, mod in list(sys.modules.items()):
            if not (modname == "fukaya_flow"
                    or modname.startswith("fukaya_flow.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def _span_wrapper(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    self.sizes[key] = self.sizes.get(key, 0) + n
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # --- operations and results ------------------------------------------

    def begin_op(self) -> None:
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.ops += 1

    def add_time(self, name: str, seconds: float) -> None:
        """Record a span measured outside the wrappers (e.g. in a child
        process), with no children."""
        self.spans.append([name, -1, 0.0, seconds])

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def merge(self, data: dict) -> None:
        """Add totals reported by a traced child process."""
        for name, seconds in data["self_s"].items():
            self.add_time(name, seconds)
        for table, key in ((self.calls, "calls"), (self.sizes, "sizes")):
            for name, n in data[key].items():
                table[name] = table.get(name, 0) + n

    def totals(self) -> dict:
        return {"self_s": self.self_times(), "calls": dict(self.calls),
                "sizes": dict(self.sizes)}

    def report(self) -> dict:
        """Every per-layer metric, per operation."""
        ops = max(self.ops, 1)
        self_s = self.self_times()
        metrics = {}
        for metric, (kind, module, path) in METRICS.items():
            name = "%s.%s" % (module, path.split(".")[-1])
            if kind == "ms":
                metrics[metric] = (1000.0 * self_s.get(name, 0.0) / ops, "ms")
            else:
                metrics[metric] = (self.calls.get(name, 0) / ops, "count")
        metrics["maslov.total_ms"] = (
            1000.0 * sum(v for k, v in self_s.items()
                         if k.startswith("maslov.")) / ops, "ms")
        metrics["cli.import_ms"] = (
            1000.0 * self_s.get("cli.import", 0.0) / ops, "ms")
        for name in SIZE_METRICS:
            metrics[name] = (self.sizes.get(name, 0) / ops, "count")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in sorted(metrics.items())}
