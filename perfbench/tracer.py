"""Per-layer tracing of the stochsamp package from outside the program.

A :class:`Tracer` replaces each public function named in ``LAYERS`` by a
timing wrapper in every ``stochsamp`` module namespace that holds it, so a
call is timed wherever its caller looks the name up.  Spans nest through a
stack: a layer's self time is its inclusive time minus the inclusive time of
the traced calls made inside it.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs; "Class.method" names patch the class attribute.
LAYERS = (
    ("cli", "main"),
    ("fourier_legendre", "build_fl_model"),
    ("fourier_legendre", "AnalyticTarget.fourier_coef"),
    ("fourier_legendre", "adaptive_quadrature"),
    ("fourier_legendre", "legendre_fourier_table"),
    ("serialize", "model_from_dict"),
    ("serialize", "dumps"),
    ("sampling", "build_frame_model"),
    ("sampling", "leverage_profile"),
    ("sampling", "coherence_profile"),
    ("sampling", "cross_term_matrix"),
    ("sampling", "draw_samples"),
    ("sampling", "reconstruct"),
    ("sampling", "empirical_gram"),
    ("sampling", "empirical_cross_term"),
    ("sampling", "range_stability_check"),
    ("linalg", "operator_norm"),
    ("linalg", "minimal_norm_lsq"),
    ("linalg", "pseudo_inverse"),
    ("linalg", "projector_from_columns"),
    ("linalg", "range_distance"),
    ("bounds", "gram_sample_size"),
    ("bounds", "crossterm_sample_size"),
)


def layer_name(module: str, function: str) -> str:
    """Metric prefix of a layer, e.g. ``fourier_legendre.fourier_coef``."""
    return f"{module}.{function.rpartition('.')[2]}"


LAYER_NAMES = tuple(layer_name(m, f) for m, f in LAYERS)


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "stochsamp" or name.startswith("stochsamp.")]


class Tracer:
    """Inclusive and self time and call count per layer.

    ``on_return`` maps a layer name to a callback that receives the layer's
    return value (used for counts such as rank-deficient draws).
    """

    def __init__(self, on_return=None):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self._on_return = dict(on_return or {})
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        observe = self._on_return.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        modules = package_modules()
        for module, function in LAYERS:
            owner = sys.modules[f"stochsamp.{module}"]
            name = layer_name(module, function)
            cls_name, _, attr = function.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, namespace, key: str, value) -> None:
        self._patched.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, value)

    def restore(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.s`` and ``<layer>.self_s`` for every layer."""
        out = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        return out
