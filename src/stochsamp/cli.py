"""Config-driven command-line front end.

Subcommands: reconstruct, mc-gram, convergence, leverage, bounds.  Every run
reads an optional JSON config (--config) whose fields the command-line flags
override, prints a JSON report to stdout, and writes CSV and JSON artifacts
next to --out when given.  Exit codes: 0 success, 2 config or validation
error, 3 numerical-accuracy failure.

Trial t of a Monte Carlo run uses seed base_seed + t, so identical configs
reproduce byte-identical outputs (for one numpy/BLAS build and BLAS thread
count; across thread counts reals agree within 1e-12 relative) and trials can
run in any order.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from . import bounds
from . import fourier_legendre as fl
from .bounds import BoundInputs, gram_sample_size
from .errors import InputValidationError, NumericalAccuracyError
# operator_norm is not called here; it stays in this namespace because the
# benchmark's tracer self-test looks it up here.
from .linalg import operator_norm
from .sampling import (
    FrameModel,
    LeverageProfile,
    _selection_model,
    coherence_profile,
    cross_term_deviation,
    draw_samples,
    gram_deviation,
    leverage_profile,
    range_stability_check,
    reconstruct,
    reconstruction_error,
)
from .serialize import dumps, fmt_real, model_from_dict, read_model_json

__all__ = ["main"]

# None marks "not given".  An unset model is DEFAULT_MODEL; a convergence
# sweep's unset n, model and target are DEFAULT_SWEEP, fl:n=<largest n> and
# DEFAULT_SWEEP_TARGET.
DEFAULT_MODEL = "identity:8"
DEFAULT_SWEEP = (4, 8, 12, 16, 20)
DEFAULT_SWEEP_TARGET = "pole_a:1.5"

DEFAULTS = {
    "model": None,
    "target": None,
    "n": None,
    "m": None,
    "delta": 0.1,
    "epsilon": None,
    "trials": 100,
    "seed": 0,
    "p_spec": "leverage",
    "out": None,
}
# Every field but p_spec has a flag of its name.
FLAG_FIELDS = [key for key in DEFAULTS if key != "p_spec"]

# The fields each command reads; one given by a flag or config key that its
# command does not read is rejected.
COMMAND_FIELDS = {
    "reconstruct": set(DEFAULTS) - {"trials", "epsilon"},
    "mc-gram": set(DEFAULTS),
    "convergence": set(DEFAULTS) - {"epsilon"},
    "leverage": {"model", "n", "p_spec", "out"},
    "bounds": {"model", "n", "delta", "epsilon", "p_spec", "out"},
}


# -- config handling ----------------------------------------------------------

def _load_config(command: str, flags: dict) -> dict:
    """The config of one command, resolved once: the flags of
    :func:`_parse_argv` override config-file values, the command's defaults
    are applied and every check that needs no built model runs, naming its
    field.  ``model`` becomes a (kind, fields) pair, ``target`` None or an
    (AnalyticTarget, info) pair and ``n`` the count or sweep to run, None only
    for a custom model's default."""
    cfg = dict(DEFAULTS)
    given = set()
    flags = dict(flags)
    path = flags.pop("config", None)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fp:
                loaded = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputValidationError(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            raise InputValidationError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS) - {"command"}
        if unknown:
            raise InputValidationError(f"unknown config fields: {sorted(unknown)}")
        if loaded.get("command", command) != command:
            raise InputValidationError(
                f"config field command is {loaded['command']!r}, "
                f"but the command run is {command}"
            )
        cfg.update(loaded)
        given.update(loaded)
    cfg.update(flags)
    given.update(flags)
    _check_fields(cfg)
    sweep = command == "convergence"
    if sweep:
        cfg["n"] = cfg["n"] or list(DEFAULT_SWEEP)
        if not isinstance(cfg["n"], list) or len(cfg["n"]) < 4:
            raise InputValidationError("convergence sweep needs at least 4 n values")
    elif isinstance(cfg["n"], list):
        raise InputValidationError(
            f"n must be a single integer >= 1 for {command}, got {cfg['n']!r}; "
            "sweep lists are for convergence"
        )
    if cfg["model"] is None:
        cfg["model"] = f"fl:n={cfg['n'][-1]}" if sweep else DEFAULT_MODEL
    if cfg["target"] is None and sweep:
        cfg["target"] = DEFAULT_SWEEP_TARGET
    kind, fields = cfg["model"] = _spec_fields(cfg["model"], "model", MODEL_FIELDS)
    target = None if cfg["target"] is None else _spec_fields(cfg["target"], "target", TARGET_FIELDS)
    unused = [key for key in DEFAULTS if key in given - COMMAND_FIELDS[command]]
    if unused:
        raise InputValidationError(f"{command} does not use {', '.join(unused)}")
    _check_p_spec(cfg["p_spec"])

    if sweep and kind != "fourier-legendre":
        raise InputValidationError("convergence sweeps require a fourier-legendre model")
    if target is not None:
        # A bad target value, such as a pole inside [-1, 1], is named first.
        target_kind, spec = target
        make = fl.exp_target if target_kind == "exp_c" else fl.pole_target
        cfg["target"] = make(**spec), {"kind": target_kind, **spec}
        if kind != "fourier-legendre":
            raise InputValidationError(
                f"target is for fourier-legendre models only; a {kind} model "
                "reconstructs the fixed vector with entries proportional to 1/(j+1)"
            )
    elif kind == "fourier-legendre" and command in ("reconstruct", "mc-gram"):
        raise InputValidationError("fourier-legendre models need a --target")
    # identity's dim or fl's n; a custom model's columns come with its file,
    # so leverage_profile checks n against them.
    columns = fields.get("dim", fields.get("n"))
    if columns is not None:
        if cfg["n"] is None:
            cfg["n"] = columns if kind == "fourier-legendre" else min(4, columns)
        if (cfg["n"][-1] if sweep else cfg["n"]) > columns:
            raise InputValidationError(
                f"n must lie in [1, {columns}] for this {kind} model, got {cfg['n']!r}"
            )
    return cfg


# Ceilings on a given m, checked at load, and on m n for the m a command
# resolves, given or the rate_onb size (see _pick_m): a draw holds m
# uniforms and m indices, and the solve a few m x n complex arrays of
# 16 m n bytes each (about 61 bytes per entry of m n in all), 160 MB each at
# MN_MAX.
M_MAX = 1_000_000
MN_MAX = 10_000_000

# Ceilings on the model sizes a spec may ask for, checked with its fields:
# identity:DIM builds one DIM x DIM complex array of 16 DIM^2 bytes (144 MB
# at the ceiling; leverage on identity:3000 peaks at 181 MB resident), and
# fl:n=N,ambient=A builds A x N tables of 16 A N bytes (160 MB at both
# ceilings, where leverage peaks at 504 MB resident and a 3-trial mc-gram at
# 823 MB, with the A x N temporaries of the SVD of W_n and the cross-term).
IDENTITY_DIM_MAX = 3000
FL_N_MAX = 100
FL_AMBIENT_MAX = 100_001
SPEC_CEILINGS = {"dim": IDENTITY_DIM_MAX, "n": FL_N_MAX, "ambient": FL_AMBIENT_MAX}

# Numeric fields: parser, admissible range, and the rule quoted on rejection.
# The parsers are those of flag strings and config values alike.
NUMERIC_RULES = {
    "delta": (float, lambda x: 0.0 < x < 1.0, "a finite real number in (0, 1)"),
    "epsilon": (float, lambda x: x > 0.0, "a finite positive real number"),
    "seed": (int, lambda x: x >= 0, "an integer >= 0"),
    "trials": (int, lambda x: x >= 1, "an integer >= 1"),
    "m": (int, lambda x: 1 <= x <= M_MAX, f"an integer in [1, {M_MAX}]"),
}


def _number(val, parse):
    """``parse(val)`` (int or float) if it is finite and equal to
    ``float(val)``, else None.  A JSON boolean is not a number, though Python
    converts it to one."""
    try:
        num = parse(val)
        if not isinstance(val, bool) and math.isfinite(num) and float(val) == num:
            return num
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _check_fields(cfg: dict) -> None:
    """Reject bad numeric fields, n and out, naming the field, before any
    work starts; numeric fields and n are normalized in place.  Fields whose
    default is None may stay None."""
    for key, (kind, in_range, rule) in NUMERIC_RULES.items():
        val = cfg[key]
        if val is None and DEFAULTS[key] is None:
            continue
        num = _number(val, kind)
        if num is None or not in_range(num):
            raise InputValidationError(f"{key} must be {rule}, got {val!r}")
        cfg[key] = num
    if cfg["n"] is not None:
        cfg["n"] = _parse_counts(cfg["n"])
    out = cfg["out"]
    if out is not None and not (
        isinstance(out, str) and out and os.path.isdir(os.path.dirname(out) or ".")
    ):
        raise InputValidationError(
            f"out must be null or a nonempty path prefix whose directory exists, got {out!r}"
        )


P_SPECS = ("leverage", "uniform_on_support")


def _check_p_spec(p_spec) -> None:
    """Reject a p_spec that is neither a known distribution name nor a list
    of finite nonnegative weights, naming p_spec; the list's length is
    checked against the model's J when the profile is built."""
    if isinstance(p_spec, str):
        valid = p_spec in P_SPECS
    else:
        valid = isinstance(p_spec, list) and bool(p_spec) and all(
            isinstance(x, (int, float)) and _number(x, float) is not None and x >= 0
            for x in p_spec
        )
    if not valid:
        raise InputValidationError(
            f"p_spec must be {' or '.join(map(repr, P_SPECS))} or a list of finite "
            f"nonnegative weights, got {p_spec!r:.80}"
        )


def _parse_counts(value) -> int | list[int]:
    """``n`` as a count (an int) or a strictly increasing sweep list of
    counts ('4,8,12' or [4, 8, 12]); anything else, a boolean too, is
    rejected naming n."""
    if isinstance(value, str):
        items = [p for p in value.split(",") if p.strip()]
    else:
        items = value if isinstance(value, (list, tuple)) else [value]
    vals = [_number(v, int) for v in items]
    if not vals or None in vals or vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise InputValidationError(
            f"n must be an integer >= 1 or a strictly increasing list of them, got {value!r}"
        )
    return vals[0] if len(vals) == 1 else vals


# Fields of each model and target kind: parser and default.  The bare form
# 'kind:VALUE' sets the first field.  KIND_NAMES maps other names of a kind.
FL_FIELDS = {
    "n": (int, 10), "ambient": (int, 2001), "J": (int, None), "max_defect": (float, 1e-2),
}
MODEL_FIELDS = {
    "identity": {"dim": (int, 8)},
    "fourier-legendre": FL_FIELDS,
    "fl": FL_FIELDS,
    "custom": {"path": (str, None)},
}
KIND_NAMES = {"fl": "fourier-legendre"}
TARGET_FIELDS = {"exp_c": {"c": (float, 1.0)}, "pole_a": {"a": (float, 1.5)}}
FIELD_RULES = {int: "an integer", float: "a finite real number", str: "a string"}


def _spec_fields(spec, name: str, kinds: dict) -> tuple[str, dict]:
    """Kind, under its KIND_NAMES name, and fields of a model or target spec
    ('kind:k=v,...', 'kind:VALUE' or an object with a "kind" key), each field
    parsed or set to its default.  A malformed 'k=v' part, an unknown kind or
    key, a value that does not parse (a boolean included), an integer below 1
    or one above its SPEC_CEILINGS entry is rejected naming the spec and the
    key."""
    bare = None
    if isinstance(spec, dict):
        given = dict(spec)
        kind = given.pop("kind", None)
    elif isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        kind, given = kind.strip(), {}
        parts = [p for p in rest.split(",") if p.strip()]
        if len(parts) == 1 and "=" not in parts[0]:
            bare, parts = parts[0].strip(), []
        for part in parts:
            key, eq, val = part.partition("=")
            if not eq:
                raise InputValidationError(f"malformed {name} spec field {part!r}")
            given[key.strip()] = val.strip()
    else:
        raise InputValidationError(f"{name} spec must be a string or object")
    if not isinstance(kind, str) or kind not in kinds:
        raise InputValidationError(f"unknown {name} kind {kind!r}")
    fields = kinds[kind]
    if bare is not None:
        given = {next(iter(fields)): bare}
    out = {key: default for key, (_, default) in fields.items()}
    for key, val in given.items():
        if key not in fields:
            raise InputValidationError(
                f"{name} spec {spec!r} has unknown key {key!r}; "
                f"{kind} takes {', '.join(fields)}"
            )
        parse = fields[key][0]
        if parse is str:
            out[key] = val if isinstance(val, str) else None
        else:
            out[key] = _number(val, parse)
        if out[key] is None:
            raise InputValidationError(
                f"{name} spec {spec!r}: {key} must be {FIELD_RULES[parse]}, got {val!r}"
            )
        if parse is int and out[key] < 1:
            raise InputValidationError(f"{name} spec {spec!r}: {key} must be >= 1, got {val!r}")
        if key in SPEC_CEILINGS and out[key] > SPEC_CEILINGS[key]:
            raise InputValidationError(
                f"{name} spec {spec!r}: {key} must be at most {SPEC_CEILINGS[key]}, got {val!r}"
            )
    if kind == "custom" and not out["path"]:
        raise InputValidationError(f"{name} spec {spec!r} needs a file path")
    return KIND_NAMES.get(kind, kind), out


def _build_model(cfg: dict) -> tuple[FrameModel, dict]:
    """The model of the resolved spec cfg["model"] and its report entry."""
    kind, spec = cfg["model"]
    if kind == "identity":
        dim = spec["dim"]
        model = _selection_model(np.arange(dim), np.eye(dim, dtype=complex))
        return model, {"kind": kind, **spec}
    if kind == "fourier-legendre":
        n, ambient = spec["n"], spec["ambient"]
        j_count = spec["J"] or ambient
        model = fl.build_fl_model(n, j_count, ambient, max_defect=spec["max_defect"])
        return model, {"kind": kind, "n": n, "J": j_count, "ambient": ambient}
    try:
        data = read_model_json(spec["path"])
    except (OSError, json.JSONDecodeError) as exc:
        raise InputValidationError(f"cannot read model file {spec['path']}: {exc}")
    return model_from_dict(data), {"kind": kind, **spec}


def _target_ambient_coef(model: FrameModel, target: fl.AnalyticTarget | None) -> np.ndarray:
    """Ambient coefficients of the function to reconstruct: the target's (a
    Fourier-Legendre model has one, and only it, by the config checks), else
    the fixed unit vector with entries proportional to 1/(j+1).
    """
    if target is not None:
        return target.fourier_coef(fl.frequencies(model.ambient_dim))
    f = 1.0 / np.arange(1.0, model.ambient_dim + 1.0)
    return (f / np.linalg.norm(f)).astype(complex)


def _profile(cfg: dict) -> tuple[FrameModel, dict, LeverageProfile]:
    """The model, its report entry and its leverage profile at the resolved
    n, or for a custom model without one at min(4, its columns)."""
    model, info = _build_model(cfg)
    n = min(4, model.num_reconstruction) if cfg["n"] is None else cfg["n"]
    return model, info, leverage_profile(model, n, cfg["p_spec"])


def _pick_m(cfg: dict, n: int) -> int:
    """The given m, or the rate_onb Gram sample size for n at delta; an m
    with m n above MN_MAX is rejected naming m."""
    m = cfg["m"]
    if m is None:
        m = gram_sample_size(BoundInputs(n=n, delta=cfg["delta"]), "rate_onb")
    if m * n > MN_MAX:
        source = "" if cfg["m"] is not None else " (the rate_onb sample size)"
        raise InputValidationError(
            f"m must be at most {MN_MAX // n} for n = {n}, so that m*n is at most "
            f"{MN_MAX}, got {m}{source}"
        )
    return m


def _bound_inputs(prof, coh, delta: float, eps: float, **extra) -> BoundInputs:
    """The sample-size calculators' inputs from the leverage and coherence
    profiles."""
    return BoundInputs(
        n=prof.n, delta=delta, epsilon=eps,
        R=coh.R, R_prime=coh.R_prime, R_double=coh.R_double, K_scale=coh.K_scale,
        sigma_norm=coh.sigma_norm, sigma_inv_norm=coh.sigma_inv_norm,
        trace_sigma=prof.trace_sigma, Lambda=coh.Lambda, **extra,
    )


# The sample-size thresholds of the reports: report name, calculator of
# bounds and its mode.  The calculator is looked up on bounds when it runs,
# so a wrapper put on that name (perfbench's tracer) sees the call.
THRESHOLDS = (
    *((f"gram_{mode}", "gram_sample_size", mode) for mode in bounds.GRAM_MODES),
    ("crossterm", "crossterm_sample_size"),
    *((f"kfactor_{mode}", "kfactor_sample_size", mode) for mode in ("riesz", "frames")),
)
MC_THRESHOLDS = ("gram_explicit_eps", "gram_at_lambda0", "crossterm")


# -- output helpers ------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_real(float(value))


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)


def _emit(report: dict, cfg: dict, csv_payload: tuple[list, list] | None = None) -> None:
    text = dumps(report)
    sys.stdout.write(text)
    out = cfg["out"]
    if out is not None:
        _write_text(f"{out}.json", text)
        if csv_payload is not None:
            header, rows = csv_payload
            _write_text(f"{out}.csv", _csv_text(header, rows))


def _wilson(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% confidence interval for a binomial proportion."""
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _prob_entry(successes: int, trials: int) -> dict:
    lo, hi = _wilson(successes, trials)
    return {
        "estimate": fmt_real(successes / trials),
        "trials": trials,
        "wilson95": [fmt_real(lo), fmt_real(hi)],
    }


# -- subcommand runners ----------------------------------------------------------

def run_reconstruct(cfg: dict) -> None:
    target, target_info = cfg["target"] or (None, None)
    model, model_info, prof = _profile(cfg)
    n = prof.n
    m = _pick_m(cfg, n)
    f_coef = _target_ambient_coef(model, target)
    draw = draw_samples(prof, m, cfg["seed"])
    rep = reconstruct(prof, draw, f_coef)
    stability = range_stability_check(prof, draw)

    report = {
        "command": "reconstruct",
        "model": model_info,
        "target": target_info,
        "n": n,
        "m": m,
        "seed": cfg["seed"],
        "err_l2": fmt_real(rep.err_l2),
        "tail_err": fmt_real(rep.tail_err),
        "k_factor": fmt_real(rep.k_factor),
        "residual_weighted": fmt_real(rep.residual_weighted),
        "bound_ok": rep.bound_ok,
        "full_rank": not rep.used_pseudo_inverse,
        "range_stable": stability.equal,
        "gram_condition": (
            rep.gram_condition
            if isinstance(rep.gram_condition, str)
            else fmt_real(rep.gram_condition)
        ),
    }
    header = ["coef_index", "x_tilde_re", "x_tilde_im"]
    rows = [
        [k + 1, float(z.real), float(z.imag)] for k, z in enumerate(rep.x_tilde)
    ]
    _emit(report, cfg, (header, rows))


def run_montecarlo(cfg: dict) -> None:
    target, target_info = cfg["target"] or (None, None)
    model, model_info, prof = _profile(cfg)
    n = prof.n
    delta = cfg["delta"]
    trials = cfg["trials"]
    base_seed = cfg["seed"]
    m = _pick_m(cfg, n)
    coh = coherence_profile(prof)
    eps = prof.lambda0 if cfg["epsilon"] is None else cfg["epsilon"]
    # Before the first draw, so that a size that is not finite exits first.
    inputs = _bound_inputs(prof, coh, delta, min(eps, coh.sigma_norm))
    thresholds = {name: getattr(bounds, calc)(inputs, *mode)
                  for name, calc, *mode in THRESHOLDS if name in MC_THRESHOLDS}
    f_coef = _target_ambient_coef(model, target)

    rows = []
    gram_exceed = cross_exceed = full_rank_count = stable_count = bound_fail = 0
    for t in range(trials):
        seed = base_seed + t
        draw = draw_samples(prof, m, seed)
        rep = reconstruct(prof, draw, f_coef)
        gram_dev = gram_deviation(prof, draw)
        cross_dev = cross_term_deviation(prof, draw)
        stable = range_stability_check(prof, draw).equal
        full_rank = not rep.used_pseudo_inverse
        gram_exceed += gram_dev >= eps
        cross_exceed += cross_dev >= eps
        full_rank_count += full_rank
        stable_count += stable
        # The error bound is a statement about full-rank draws only.
        bound_fail += full_rank and not rep.bound_ok
        rows.append(
            [t, seed, m, n, rep.err_l2, rep.tail_err, rep.k_factor,
             gram_dev, cross_dev, rep.bound_ok, full_rank, stable]
        )

    report = {
        "command": "mc-gram",
        "model": model_info,
        "target": target_info,
        "n": n,
        "m": m,
        "delta": fmt_real(delta),
        "epsilon": fmt_real(eps),
        "trials": trials,
        "base_seed": base_seed,
        "p_gram_dev_ge_eps": _prob_entry(gram_exceed, trials),
        "p_cross_dev_ge_eps": _prob_entry(cross_exceed, trials),
        "full_rank_frequency": _prob_entry(full_rank_count, trials),
        "range_stable_frequency": _prob_entry(stable_count, trials),
        "bound_violations": bound_fail,
        "sample_size_thresholds": thresholds,
    }
    header = [
        "trial_index", "seed", "m", "n", "err_l2", "tail_err", "k_factor",
        "gram_dev", "cross_dev", "bound_ok", "full_rank", "range_stable",
    ]
    _emit(report, cfg, (header, rows))


def _median(values) -> float:
    """np.median of a nonempty list of non-NaN reals, bit for bit, from a
    sort: the middle value, or (a + b) / 2 of the two middle values.
    np.median itself imports numpy.ma, which no result needs."""
    srt = np.sort(values)
    mid = srt.size // 2
    return float(srt[mid] if srt.size % 2 else (srt[mid - 1] + srt[mid]) / 2)


def run_convergence(cfg: dict) -> None:
    n_list = cfg["n"]
    delta = cfg["delta"]
    trials = cfg["trials"]
    base_seed = cfg["seed"]
    target, target_info = cfg["target"]
    ms = [_pick_m(cfg, n) for n in n_list]
    model, model_info = _build_model(cfg)
    f_coef = _target_ambient_coef(model, target)

    rows = []
    medians = []
    for n, m in zip(n_list, ms):
        prof = leverage_profile(model, n, cfg["p_spec"])
        errs = [reconstruction_error(prof, draw_samples(prof, m, base_seed + t), f_coef)
                for t in range(trials)]
        # This n's record, its n x J interaction vectors too, goes with prof.
        del prof
        med = _median(errs)
        medians.append(med)
        rows.append([n, m, trials, med, float(np.min(errs)), float(np.max(errs))])

    log_med = np.log(np.maximum(medians, 1e-300))
    slope, intercept = np.polyfit(np.asarray(n_list, dtype=float), log_med, 1)
    report = {
        "command": "convergence",
        "model": model_info,
        "target": target_info,
        "n_sweep": n_list,
        "delta": fmt_real(delta),
        "trials": trials,
        "base_seed": base_seed,
        "median_err": [fmt_real(v) for v in medians],
        "fit_slope": fmt_real(float(slope)),
        "fit_intercept": fmt_real(float(intercept)),
    }
    header = ["n", "m", "trials", "median_err", "min_err", "max_err"]
    _emit(report, cfg, (header, rows))


def run_leverage(cfg: dict) -> None:
    _, model_info, prof = _profile(cfg)
    cum = np.cumsum(prof.p)
    count = prof.num_indices
    is_fl = model_info["kind"] == "fourier-legendre"
    freqs = fl.frequencies(count) if is_fl else np.arange(1, count + 1)
    rows = [[j + 1, int(freqs[j]), float(prof.v_norm_sq[j]), float(prof.p[j]), float(cum[j])]
            for j in range(count)]
    report = {
        "command": "leverage",
        "model": model_info,
        "n": prof.n,
        "num_indices": prof.num_indices,
        "trace_sigma": fmt_real(prof.trace_sigma),
        "lambda0": fmt_real(prof.lambda0),
        "tail_mass": fmt_real(prof.tail_mass),
        "distribution_id": prof.distribution_id,
    }
    header = ["index", "frequency", "v_norm_sq", "p", "cumulative_p"]
    _emit(report, cfg, (header, rows))


def run_bounds(cfg: dict) -> None:
    model, model_info, prof = _profile(cfg)
    n = prof.n
    delta = cfg["delta"]
    coh = coherence_profile(prof)
    eps = prof.lambda0 if cfg["epsilon"] is None else cfg["epsilon"]
    d_upper = model.declared_bounds[3] if model.declared_bounds else coh.sigma_norm
    inputs = _bound_inputs(prof, coh, delta, eps, D_riesz_upper=d_upper)
    # A threshold whose inputs are out of its range reports the error.
    thresholds = {}
    for name, calc, *mode in THRESHOLDS:
        try:
            thresholds[name] = getattr(bounds, calc)(inputs, *mode)
        except InputValidationError as exc:
            thresholds[name] = {"error": str(exc)}

    report = {
        "command": "bounds",
        "model": model_info,
        "n": n,
        "delta": fmt_real(delta),
        "epsilon": fmt_real(eps),
        "inputs": {
            **{key: fmt_real(val) for key, val in vars(coh).items() if key != "T_norm"},
            "trace_sigma": fmt_real(prof.trace_sigma),
            "D_riesz_upper": fmt_real(d_upper),
            "lambda0": fmt_real(prof.lambda0),
        },
        "thresholds": thresholds,
    }
    _emit(report, cfg)


# -- entry point --------------------------------------------------------------------

RUNNERS = {
    "reconstruct": run_reconstruct,
    "mc-gram": run_montecarlo,
    "convergence": run_convergence,
    "leverage": run_leverage,
    "bounds": run_bounds,
}


FLAGS = ("config", *FLAG_FIELDS)
HELP = ("-h", "--help")

USAGE = f"""usage: stochsamp COMMAND [--NAME VALUE | --NAME=VALUE]...

commands: {', '.join(RUNNERS)}
flags: {' '.join(f'--{name}' for name in FLAGS)}

Each flag is spelt out in full and a repeated flag keeps its last value.
Flags override the fields of the JSON file given by --config.  Exit codes:
0 success, 2 usage, config or validation error, 3 numerical-accuracy failure.
"""


def _parse_argv(argv: list[str]) -> tuple[str, dict] | None:
    """The command of a command line and its flags, or None where it asks
    for help: -h or --help where a command or a flag is expected.

    The first token is a command of RUNNERS and every later one --NAME VALUE
    or --NAME=VALUE, NAME one of FLAGS; the flags map NAME to the last value
    given.  Values stay strings; _load_config checks them like config
    values.  Any other token raises InputValidationError naming it."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in HELP:
        return None
    if command not in RUNNERS:
        given = "no command given" if command is None else f"unknown command {command!r}"
        raise InputValidationError(f"{given}; commands: {', '.join(RUNNERS)}")
    flags = {}
    for token in tokens:
        if token in HELP:
            return None
        name, eq, value = token[2:].partition("=")
        if not token.startswith("--") or name not in FLAGS:
            raise InputValidationError(
                f"unrecognized argument {token!r}; flags are spelt out in full"
            )
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputValidationError(f"flag {token} needs a value")
        flags[name] = value
    return command, flags


def main(argv=None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except InputValidationError as exc:
        print(f"usage error: {exc}; see stochsamp --help", file=sys.stderr)
        return 2
    if parsed is None:
        print(USAGE, end="")
        return 0
    try:
        RUNNERS[parsed[0]](_load_config(*parsed))
    except NumericalAccuracyError as exc:
        print(f"numerical accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (InputValidationError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
