"""Spans around the public functions of schrostab, recorded from outside the package.

`Tracer.installed()` replaces each traced function in every schrostab module
namespace that binds it (``build_scheme_matrices`` is imported by ``systems``,
``spectral`` and ``identities``; ``cli`` imports ``resolvent_sweep`` and
``spectral_abscissa`` directly) and puts the originals back on exit.  Spans
are kept in memory as ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span, or -1.  Calls run on one thread, so spans nest
and a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" wraps a method on its class.
TRACED = {
    "spectral.eigenpairs": ("schrostab.spectral", "eigenpairs"),
    "spectral.spectral_norm_estimate": ("schrostab.spectral", "spectral_norm_estimate"),
    "spectral.spectral_abscissa": ("schrostab.spectral", "spectral_abscissa"),
    "spectral.resolvent_norm": ("schrostab.spectral", "resolvent_norm"),
    "spectral.sweep_grid": ("schrostab.spectral", "sweep_grid"),
    "grid.build_scheme_matrices": ("schrostab.grid", "build_scheme_matrices"),
    "grid.shadow_element": ("schrostab.grid", "shadow_element"),
    "grid.triple_sum_identity_gap": ("schrostab.grid", "triple_sum_identity_gap"),
    "systems.assemble_generator": ("schrostab.systems", "assemble_generator"),
    "systems.apply_generator": ("schrostab.systems", "apply_generator"),
    "systems.discrete_energy": ("schrostab.systems", "discrete_energy"),
    "dynamics.stepper_setup": ("schrostab.dynamics", "MidpointStepper.__init__"),
    "dynamics.step": ("schrostab.dynamics", "MidpointStepper.step"),
    "dynamics.simulate": ("schrostab.dynamics", "simulate"),
    "dynamics.fit_decay_rate": ("schrostab.dynamics", "fit_decay_rate"),
    "identities.run_identity_suite": ("schrostab.identities", "run_identity_suite"),
    "identities.claim_functionals_gap": ("schrostab.identities", "claim_functionals_gap"),
    "identities.cross_term_gap": ("schrostab.identities", "cross_term_gap"),
    "identities.boundary_multiplier_gap_y": ("schrostab.identities", "boundary_multiplier_gap_y"),
    "identities.boundary_multiplier_gap_z": ("schrostab.identities", "boundary_multiplier_gap_z"),
    "continuous.characteristic_roots": ("schrostab.continuous", "characteristic_roots"),
}

# Spans whose first argument identifies the work, for the reuse ratios.
KEYS = {
    "spectral.spectral_abscissa": lambda system, *a, **kw: (system.scheme, system.n, system.k),
    "grid.build_scheme_matrices": lambda mesh, *a, **kw: mesh.n,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.keys: dict[str, set] = {name: set() for name in KEYS}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        key = KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever schrostab binds it."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "schrostab" or n.startswith("schrostab."))]
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn))
                undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, bound, wrapped)
                        undo.append((mod, bound, fn))
        try:
            yield self
        finally:
            for target, bound, fn in reversed(undo):
                setattr(target, bound, fn)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    out: dict[str, float] = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    for name, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def call_counts(spans) -> Counter:
    return Counter(name for name, *_ in spans)
