"""Spans and counts for the solver's layers, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules
(``problems``, ``mesh``, ``quadrature``, ``powers``, ``basis``,
``spectral``) in every ``spps`` module namespace that holds it, so calls
made through a name imported with ``from .x import f`` are seen too.  Each
call records a span (name, start, end, parent, case) plus a few
call-specific facts (mesh size, power count, shift distance).  Nothing in
the package changes; the wrappers live only in the process that installs
them.

``layer_metrics`` turns the spans into the per-layer numbers.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "spps"
LAYERS = ("problems", "mesh", "quadrature", "powers", "basis", "spectral")

SWEEP = "spectral.sweep_eigenvalues"
# bytes per complex128 sample
SAMPLE_BYTES = 16
# |new center - old center| below this share of (1 + |old center|) makes a
# shift "near zero": it rebuilds a whole basis for no change of center
NEAR_ZERO_SHIFT = 1e-6


class Tracer:
    """Records spans for wrapped calls; one instance per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, case, info]
        self.case = None
        self._stack = []
        self._candidates = frozenset()
        self._sweep_code = None
        self._facts = {
            "quadrature.indefinite_integral": self._integral_facts,
            "powers.compute_formal_powers": self._powers_facts,
            "basis.shift_basis": self._shift_facts,
            "spectral.roots_of": self._roots_facts,
            SWEEP: self._sweep_facts,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions at every binding in the package."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                    if f"{layer}.{name}" == SWEEP:
                        self._sweep_code = fn.__code__
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name, fn):
        facts = self._facts.get(name)
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            caller = sys._getframe(1).f_code
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if facts is not None:
                    bound = dict(zip(params, args), **kwargs)
                    span[5] = facts(bound, result, caller)

        return traced

    # -- call-specific facts --------------------------------------------------

    @staticmethod
    def _integral_facts(bound, result, caller):
        return {"slots": int(bound["g"].values.size)}

    @staticmethod
    def _powers_facts(bound, result, caller):
        return {"n_terms": int(bound["n_terms"]), "slots": int(bound["f"].values.size)}

    def _shift_facts(self, bound, result, caller):
        old = complex(bound["basis"].center)
        new = complex(bound["new_center"])
        return {
            "near_zero": abs(new - old) < NEAR_ZERO_SHIFT * (1.0 + abs(old)),
            # a validation shift recentres at a candidate root of the sweep
            "validation": new in self._candidates,
        }

    def _roots_facts(self, bound, result, caller):
        # candidate lists are the roots sweep_eigenvalues itself asks for;
        # the refinement of an accepted root calls roots_of from a helper
        if caller is self._sweep_code and result is not None:
            self._candidates = frozenset(complex(z) for z in result)
        return None

    @staticmethod
    def _sweep_facts(bound, result, caller):
        return {"eigs": len(result) if result is not None else 0}

    # -- derived metrics ------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers and the exact integral-count self-check."""
        n = len(self.spans)
        child = [0.0] * n
        in_sweep = [False] * n
        for i, (name, t0, t1, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_sweep[i] = in_sweep[parent] or self.spans[parent][0] == SWEEP
        count, total, own = {}, {}, {}
        setup_total, setup_own = {}, {}
        for i, (name, t0, t1, parent, _, _) in enumerate(self.spans):
            dur = t1 - t0
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i]
            if not in_sweep[i] and name != SWEEP:
                setup_total[name] = setup_total.get(name, 0.0) + dur
                setup_own[name] = setup_own.get(name, 0.0) + dur - child[i]

        def layer_self(layer, table=own):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        def infos(name):
            return [s[5] for s in self.spans if s[0] == name and s[5] is not None]

        integral_slots = sum(f["slots"] for f in infos("quadrature.indefinite_integral"))
        builds = infos("powers.compute_formal_powers")
        shifts = infos("basis.shift_basis")
        eigs = sum(f["eigs"] for f in infos(SWEEP))
        validations = sum(f["validation"] for f in shifts)
        integrals = count.get("quadrature.indefinite_integral", 0)
        verify_calls = count.get("basis.verify_particular", 0)
        predicted = sum(2 * (2 * b["n_terms"] + 1) for b in builds) + verify_calls
        quad_self = layer_self("quadrature")
        seed_names = ("basis.build_seed_solution", "basis.particular_from_samples")

        metrics = {
            "quadrature.integrals": integrals,
            "quadrature.self_s": quad_self,
            "quadrature.ns_per_slot": quad_self / integral_slots * 1e9 if integral_slots else 0.0,
            "quadrature.gb_moved_computed": 2 * SAMPLE_BYTES * integral_slots / 1e9,
            "powers.builds": len(builds),
            "powers.self_s": layer_self("powers"),
            "powers.mb_per_build_computed": (
                sum(2 * (2 * b["n_terms"] + 2) * b["slots"] * SAMPLE_BYTES for b in builds)
                / len(builds)
                / 1e6
                if builds
                else 0.0
            ),
            "basis.builds": count.get("basis.build_basis", 0),
            "basis.shifts": len(shifts),
            "basis.near_zero_shifts": sum(f["near_zero"] for f in shifts),
            "basis.evals": count.get("basis.evaluate_solution", 0),
            "basis.eval_s": total.get("basis.evaluate_solution", 0.0),
            "basis.verify_calls": verify_calls,
            "basis.verify_s": total.get("basis.verify_particular", 0.0),
            "basis.seed_s": sum(setup_total.get(k, 0.0) for k in seed_names),
            "spectral.builds_per_eig": (
                count.get("basis.build_basis", 0) / eigs if eigs else 0.0
            ),
            "spectral.accept_ratio": eigs / validations if validations else 0.0,
            "spectral.roots_s": total.get("spectral.roots_of", 0.0),
            "spectral.assemble_s": total.get("spectral.assemble_characteristic", 0.0),
            "problems.parse_s": setup_total.get("problems.parse_problem", 0.0),
            "problems.prepare_s": setup_total.get("problems.prepare", 0.0),
            "mesh.sample_s": layer_self("mesh", setup_own),
        }
        check = {"integrals": integrals, "predicted": predicted, "ok": integrals == predicted}
        return metrics, check
