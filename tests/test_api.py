"""The public API: what the paper states plus what the CLI and the benchmark
use.  A name added to or dropped from a module's ``__all__`` fails here, so
the surface changes only on purpose."""

import importlib
import importlib.util
import os

import pytest

import stochsamp

PUBLIC = {
    "bounds": {
        "BoundInputs", "GRAM_MODES", "bernstein_matrix_tail", "bernstein_operator_tail",
        "bernstein_rectangular_tail", "crossterm_sample_size", "gram_sample_size",
        "kfactor_sample_size",
    },
    "cli": {"main"},
    "fourier_legendre": {
        "AnalyticTarget", "adaptive_quadrature", "build_fl_model",
        "column_defects", "exp_target", "fl_leverage_distribution", "frequencies",
        "legendre_fourier_table", "legendre_table", "pole_target", "spherical_bessel_table",
    },
    "linalg": {
        "as_matrix", "default_rel_tol", "hermitian_dilation",
        "minimal_norm_lsq", "operator_norm", "pinv_from_svd", "projector_from_columns",
        "projector_from_svd", "pseudo_inverse", "range_distance", "svd_with_rank",
    },
    "sampling": {
        "SUPPORT_TOL", "ChristoffelProfile", "CoherenceProfile", "FrameModel",
        "LeverageProfile", "RangeStability", "ReconstructionReport", "SampleDraw",
        "build_frame_model", "build_selection_model", "christoffel_profile",
        "coherence_profile", "cross_term_deviation", "cross_term_matrix", "draw_samples",
        "empirical_cross_term", "empirical_gram", "gram_deviation", "leverage_profile",
        "range_stability_check", "reconstruct", "reconstruction_error",
    },
    "serialize": {
        "complex_array_from_lists", "complex_array_to_lists", "dumps", "fmt_complex",
        "fmt_real", "model_from_dict", "model_to_dict", "read_model_json",
    },
}


def _tracer_layers():
    """``LAYERS`` of the benchmark's tracer, which imports only the standard library."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_all_is_the_kept_set_and_resolves(module):
    mod = importlib.import_module(f"stochsamp.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == PUBLIC[module]
    for name in mod.__all__:
        assert hasattr(mod, name), f"stochsamp.{module}.{name}"


def test_package_root_exports_only_module_api():
    # Each name is imported from its module; the root holds nothing but the
    # submodules imported so far and __version__.
    exported = {name for name in vars(stochsamp) if not name.startswith("_")}
    assert exported <= set(PUBLIC) | {"errors"}
    assert isinstance(stochsamp.__version__, str)


@pytest.mark.parametrize("module,function", _tracer_layers())
def test_traced_layer_resolves(module, function):
    target = importlib.import_module(f"stochsamp.{module}")
    for part in function.split("."):
        target = getattr(target, part)
    assert callable(target)
