"""The per-draw kernel (one Gram, one SVD rank decision) and the K-factor and
cross-term deviation built on it, against the direct n x N_amb formulas.

Both norms come from n x n forms built from the drawn columns' k x k residual
Gram; a rounding guard sends a form whose terms cancel (rho = scale /
lambda_max above rho_max, or lambda_max <= 0) to the n x N_amb fallback.  The
tests cover both paths, the per-draw and per-n memos, and the per-trial memory
at a large ambient dimension."""

import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import stochsamp.cli as cli
import stochsamp.linalg as linalg
import stochsamp.sampling as sampling
from stochsamp.fourier_legendre import build_fl_model, exp_target, frequencies, pole_target
from stochsamp.linalg import (
    operator_norm,
    projector_from_columns,
    projector_from_svd,
    pseudo_inverse,
    range_distance,
)
from stochsamp.sampling import (
    SampleDraw,
    build_frame_model,
    build_selection_model,
    coherence_profile,
    cross_term_deviation,
    cross_term_matrix,
    draw_samples,
    empirical_cross_term,
    empirical_gram,
    leverage_profile,
    range_stability_check,
    reconstruct,
    reconstruction_error,
)
from stochsamp.serialize import model_to_dict

REL = 1e-12


def unitary_frame(ambient=100, n=32):
    """A Haar-random unitary S and W on 64 of its columns plus small noise;
    m = 48 draws for n = 32 are rank-deficient in about a fifth of trials."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((ambient, ambient)) + 1j * rng.standard_normal((ambient, ambient))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    cols = rng.choice(ambient, size=64, replace=False)
    g = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    e = rng.standard_normal((ambient, n)) + 1j * rng.standard_normal((ambient, n))
    return build_frame_model(s, s[:, cols] @ g / np.sqrt(128.0) + 0.02 * e / np.sqrt(2.0 * ambient))


# (model, n, sample sizes): FL with J = ambient, J = 201 < ambient, J = 8 < n
# (every draw rank-deficient), and a dense frame.
CASES = {
    "fl-J301": (lambda: build_fl_model(10, 301, 301, max_defect=0.05), 10, (10, 20, 142)),
    "fl-J201": (lambda: build_fl_model(10, 201, 301, max_defect=0.05), 10, (10, 20, 142)),
    "fl-J8": (lambda: build_fl_model(10, 8, 301, max_defect=0.05), 10, (10, 40)),
    "dense-unitary": (unitary_frame, 32, (32, 48, 96)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, n, ms = CASES[request.param]
    model = make()
    prof = leverage_profile(model, n)
    f = (exp_target(1.0).fourier_coef(frequencies(model.ambient_dim))
         if model.s_rows is not None else np.ones(model.ambient_dim, dtype=complex))
    return model, prof, ms, f


def direct_k_factor(model, prof, draw):
    """||R G_hat^+ C_hat|| from the n x N_amb empirical cross-term."""
    r = np.linalg.qr(model.w_coef[:, :prof.n])[1]
    inner = r @ (pseudo_inverse(empirical_gram(prof, draw)) @ empirical_cross_term(prof, draw))
    return np.linalg.svd(inner, compute_uv=False)[0]


def direct_cross_dev(model, prof, draw):
    diff = empirical_cross_term(prof, draw) - cross_term_matrix(prof)
    return np.linalg.svd(diff, compute_uv=False)[0]


def count_wide_calls(monkeypatch) -> list:
    """Record the shape of every n x N_amb matrix the fallback takes a norm
    of."""
    calls = []
    wide = sampling._wide_norm
    monkeypatch.setattr(sampling, "_wide_norm", lambda a: calls.append(a.shape) or wide(a))
    return calls


def test_k_factor_and_cross_dev_match_direct_formulas(case, monkeypatch):
    model, prof, ms, f = case
    calls = count_wide_calls(monkeypatch)
    deficient = 0
    for m in ms:
        calls.clear()
        for seed in range(8):
            draw = draw_samples(prof, m, seed)
            rep = reconstruct(prof, draw, f)
            deficient += rep.used_pseudo_inverse
            k_ref = direct_k_factor(model, prof, draw)
            assert abs(rep.k_factor - k_ref) <= REL * k_ref, (m, seed)
            dev_ref = direct_cross_dev(model, prof, draw)
            dev = cross_term_deviation(prof, draw)
            assert abs(dev - dev_ref) <= REL * dev_ref, (m, seed)
        # Below m = 4J both norms keep their n x n forms.  At m = 40 on fl-J8
        # (J = 8 < n) nearly every draw holds all eight indices, so C_hat is
        # close to C, rho exceeds rho_max and the deviation falls back.
        if m < 4 * prof.num_indices:
            assert not calls, m
        else:
            assert len(calls) >= 4
    assert deficient > 0  # the pseudo-inverse path is covered too


def test_rank_decision_is_shared(case):
    _, prof, ms, f = case
    for seed in range(8):
        draw = draw_samples(prof, ms[0], seed)
        rep = reconstruct(prof, draw, f)
        g = empirical_gram(prof, draw)
        sv = np.linalg.svd(g, compute_uv=False)
        rank = int(np.count_nonzero(sv > 1e-10 * prof.n * sv[0]))
        assert rep.used_pseudo_inverse == (rank < prof.n)
        if not rep.used_pseudo_inverse:
            assert abs(rep.gram_condition - sv[0] / sv[-1]) <= 1e-10 * rep.gram_condition
        assert range_stability_check(prof, draw).equal == (rank == np.linalg.matrix_rank(prof.sigma))


def test_range_distance_without_projector_checks(case, monkeypatch):
    # Both projectors are exact by construction, so neither is re-validated;
    # the distance is the Hermitian norm of their difference and agrees with
    # linalg.range_distance, a number in [0, 1], to 1e-14.
    model, prof, ms, f = case
    limit = projector_from_columns(prof.sigma)
    draws = [draw_samples(prof, ms[0], seed) for seed in range(4)]
    want = [range_distance(projector_from_svd(k.u, k.rank), limit)
            for k in (sampling._draw_kernel(prof, d) for d in draws)]

    def refuse(*args, **kwargs):
        raise AssertionError("a projector was re-validated")

    monkeypatch.setattr(linalg, "_validate_projector", refuse)
    monkeypatch.setattr(sampling, "operator_norm", refuse)
    for draw, ref in zip(draws, want):
        assert abs(range_stability_check(prof, draw).distance - ref) <= 1e-14


def random_selection(repeat: bool):
    """Selection on 12 coordinates with a random W_4; with ``repeat`` its
    last column repeats the first, so sigma has rank 3 < n = 4."""
    rng = np.random.default_rng(4)
    w = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    if repeat:
        w[:, 3] = w[:, 0]
    return build_selection_model(np.arange(12), w)


@pytest.mark.parametrize("rule, repeat, m", [
    ("ranks differ", True, 2),
    ("both full", False, 40),
    ("equal below n", True, 40),
])
def test_range_check_decides_from_the_ranks(rule, repeat, m, monkeypatch):
    # Agrees with linalg.range_distance of the explicit projectors; only
    # equal ranks below n take an eigensolve.
    prof = leverage_profile(random_selection(repeat), 4)
    limit = projector_from_columns(prof.sigma)
    rank = np.linalg.matrix_rank(limit)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    for seed in range(6):
        draw = draw_samples(prof, m, seed)
        kern = sampling._draw_kernel(prof, draw)
        assert {"ranks differ": kern.rank != rank, "both full": kern.rank == rank == 4,
                "equal below n": kern.rank == rank == 3}[rule]
        ref = range_distance(projector_from_svd(kern.u, kern.rank), limit)
        calls.clear()
        got = range_stability_check(prof, draw)
        assert got.equal == (ref < 1e-6)
        assert abs(got.distance - ref) <= 1e-14
        assert len(calls) == (rule == "equal below n")


@pytest.mark.parametrize("model", ["identity:12", "fl:n=6,ambient=301,max_defect=0.05", "custom"])
def test_a_trial_takes_two_svds(model, tmp_path, monkeypatch, capsys):
    # One SVD of G_hat and one of the weighted design per trial: the
    # difference between runs of 9 and 4 trials is 10 SVDs.
    args = ["--n", "4", "--m", "6"]
    if model == "custom":
        frame = tmp_path / "frame.json"
        frame.write_text(json.dumps(model_to_dict(unitary_frame(ambient=64, n=8))))
        model = f"custom:{frame}"
    elif model.startswith("fl"):
        args = ["--target", "exp_c:1", "--m", "12"]
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    counts = []
    for trials in (4, 9):
        calls.clear()
        assert cli.main(["mc-gram", "--model", model, *args, "--trials", str(trials)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[1] - counts[0] == 2 * 5


def near_w_model(spread):
    """Selection model with S = I on 40 coordinates and W close to the first
    four of them: every draw comes from sampling vectors close to W_n, so
    C_hat and the cross-term deviation are small next to the drawn weights."""
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
    return build_selection_model(np.arange(40), np.eye(40, 4) + spread * noise)


def check_near_w(model, spread, calls):
    """K and the deviation at 1e-12 on four draws; below spread 1e-2 both
    forms cancel, so each draw takes the fallback twice."""
    prof = leverage_profile(model, 4)
    f = np.linspace(1.0, 2.0, 40).astype(complex)
    for seed in range(4):
        draw = draw_samples(prof, 200, seed)
        k_ref = direct_k_factor(model, prof, draw)
        assert abs(reconstruct(prof, draw, f).k_factor - k_ref) <= REL * k_ref
        dev_ref = direct_cross_dev(model, prof, draw)
        assert abs(cross_term_deviation(prof, draw) - dev_ref) <= REL * dev_ref
    if spread < 1e-2:
        assert calls == [(4, 40)] * 8


@pytest.mark.parametrize("spread", [1e-2, 1e-4, 1e-6])
def test_sampling_close_to_reconstruction_space_keeps_accuracy(spread, monkeypatch):
    check_near_w(near_w_model(spread), spread, count_wide_calls(monkeypatch))


def near_w_dense_model(spread):
    """Dense analogue of :func:`near_w_model`: a random unitary S on 40
    coordinates and W close to its first four columns."""
    rng = np.random.default_rng(1)
    z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    noise = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
    return build_frame_model(s, s[:, :4] + spread * noise)


@pytest.mark.parametrize("spread", [1e-2, 1e-4, 1e-6])
def test_dense_sampling_close_to_reconstruction_space_keeps_accuracy(spread, monkeypatch):
    check_near_w(near_w_dense_model(spread), spread, count_wide_calls(monkeypatch))


def test_reconstruction_error_is_err_l2(case):
    _, prof, ms, f = case
    deficient = 0
    for m in (1, *ms):
        for seed in range(6):
            # A fresh draw for each path, so neither reads the other's kernel.
            err = reconstruction_error(prof, draw_samples(prof, m, seed), f)
            rep = reconstruct(prof, draw_samples(prof, m, seed), f)
            assert err == rep.err_l2, (m, seed)
            deficient += rep.used_pseudo_inverse
    assert deficient > 0


def test_reconstruction_error_on_identity_model():
    model = build_selection_model(np.arange(8), np.eye(8))
    prof = leverage_profile(model, 4)
    f = 1.0 / np.arange(1.0, 9.0) + 0.5j
    for m in (1, 4, 20):
        for seed in range(6):
            draw = draw_samples(prof, m, seed)
            assert reconstruction_error(prof, draw, f) == reconstruct(
                prof, draw, f).err_l2


def test_reconstruction_error_builds_no_kernel_or_k_factor(monkeypatch):
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    twin = build_fl_model(10, 301, 301, max_defect=0.05)
    twin_prof = leverage_profile(twin, 10)
    reconstruction_error(twin_prof, draw_samples(prof, 40, 3), f)
    assert "_svd" not in vars(twin_prof._rec)  # the solve takes no SVD of W_n
    tgt = twin._memo["target"]
    assert not tgt.tails and "norm" not in vars(tgt)  # nor a tail or ||f||
    want = reconstruct(prof, draw_samples(prof, 40, 3), f).err_l2

    def refuse(*args, **kwargs):
        raise AssertionError("the error-only path did more than the solve")

    for name in ("_draw_kernel", "_k_factor"):
        monkeypatch.setattr(sampling, name, refuse)
    draw = draw_samples(prof, 40, 3)
    assert reconstruction_error(prof, draw, f) == want
    # The draw carries only the mark of draw_samples, no kernel.
    assert draw._memo.keys() == {"checked"}


def test_reconstruction_error_checks_as_reconstruct():
    model = build_fl_model(4, 41, 101, max_defect=0.05)
    prof = leverage_profile(model, 4)
    other = leverage_profile(model, 4, "uniform_on_support")
    f = exp_target(1.0).fourier_coef(frequencies(101))
    good = draw_samples(prof, 10, 0)

    def draw_of(indices):
        return SampleDraw(indices=np.array(indices, dtype=np.int64), seed=0,
                          distribution_id=prof.distribution_id)

    bad_f = f.copy()
    bad_f[3] = np.nan
    cases = [
        (good, f[:-1]), (good, bad_f), (draw_samples(other, 10, 0), f),
        (draw_of([-1, 0]), f), (draw_of([0, 41]), f), (draw_of([]), f),
    ]
    for draw, target in cases:
        with pytest.raises(sampling.InputValidationError) as want:
            reconstruct(prof, draw, target)
        with pytest.raises(sampling.InputValidationError) as got:
            reconstruction_error(prof, draw, target)
        assert str(got.value) == str(want.value)


def test_tail_memo_is_keyed_on_the_target_bytes():
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    first = reconstruct(prof, draw_samples(prof, 40, 0), f).tail_err
    tgt = model._memo["target"]
    assert tgt.key == f.tobytes() and tgt.tails == {10: first}
    # A planted value shows which calls read the memo: every target with the
    # same values, whatever its flags, form or buffer; a vector over a bytes
    # object is keyed like any other, on a copy of its bytes.
    tgt.tails[10] = 0.5
    frozen = f.copy()
    frozen.setflags(write=False)
    over_bytes = np.frombuffer(f.tobytes(), dtype=complex)
    over_part = np.frombuffer(f.tobytes() + bytes(16), dtype=complex, count=301)
    for same in (frozen, f.copy(), frozen[:], list(f), over_bytes, over_part):
        assert reconstruct(prof, draw_samples(prof, 40, 1), same).tail_err == 0.5
        assert model._memo["target"] is tgt
    assert tgt.key is not over_bytes.base
    # Changed values recompute the tail and replace the record.
    changed = f.copy()
    changed[-5:] += 1.0
    q = prof._rec.q
    want = float(np.linalg.norm(changed - q @ (q.conj().T @ changed)))
    assert reconstruct(prof, draw_samples(prof, 40, 2), changed).tail_err == want
    tgt = model._memo["target"]
    assert tgt.key == changed.tobytes() and tgt.tails == {10: want}


def test_tail_follows_a_writeable_target_changed_in_place():
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    draw = draw_samples(prof, 40, 0)
    before = reconstruct(prof, draw, f).tail_err
    f[-5:] += 1.0
    after = reconstruct(prof, draw, f).tail_err
    q = prof._rec.q
    assert after != before
    assert after == float(np.linalg.norm(f - q @ (q.conj().T @ f)))


def test_target_record_checks_finiteness_once_per_bytes(monkeypatch):
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    draw = draw_samples(prof, 40, 0)
    calls = []

    class Counted(sampling._PerTarget):
        # The finiteness test runs once per record, when it is built.
        def __init__(self, model, key):
            calls.append(len(key))
            super().__init__(model, key)

    monkeypatch.setattr(sampling, "_PerTarget", Counted)
    for _ in range(3):
        reconstruct(prof, draw, f)
        reconstruction_error(prof, draw, f.copy())
    assert calls == [16 * 301]
    # A non-finite target is rejected on every call, its verdict memoized.
    bad = f.copy()
    bad[3] = np.nan
    for _ in range(2):
        for fn in (reconstruct, reconstruction_error):
            with pytest.raises(sampling.InputValidationError, match="non-finite"):
                fn(prof, draw, bad)
    assert calls == [16 * 301] * 2
    # The length is checked on every call, before the record.
    for fn in (reconstruct, reconstruction_error):
        with pytest.raises(sampling.InputValidationError, match="length 300"):
            fn(prof, draw, f[:-1])
    assert model._memo["target"].key == bad.tobytes()


def test_kernel_is_computed_once_per_profile_and_draw(monkeypatch):
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    draw = draw_samples(prof, 40, 1)
    kernel = sampling._DrawKernel
    calls = []
    monkeypatch.setattr(sampling, "_DrawKernel", lambda **k: calls.append(1) or kernel(**k))
    f = exp_target(1.0).fourier_coef(frequencies(301))
    reconstruct(prof, draw, f)
    cross_term_deviation(prof, draw)
    range_stability_check(prof, draw)
    gram = empirical_gram(prof, draw)
    assert empirical_gram(prof, draw) is gram
    assert len(calls) == 1
    # Another profile over the same distribution gets its own kernel.
    other = leverage_profile(model, 10)
    assert np.array_equal(empirical_gram(other, draw), gram)
    assert len(calls) == 2


def test_memo_takes_no_part_in_equality_or_serialization():
    prof = leverage_profile(build_fl_model(4, 41, 101, max_defect=0.05), 4)
    draw = draw_samples(prof, 10, 0)
    fresh = SampleDraw(indices=draw.indices, seed=draw.seed,
                       distribution_id=draw.distribution_id)
    empirical_gram(prof, draw)
    assert draw._memo and not fresh._memo
    assert draw == fresh
    assert repr(draw) == repr(fresh)


@pytest.mark.parametrize("bad", [[-1, 0], [0, 41]])
def test_out_of_range_indices_rejected(bad):
    prof = leverage_profile(build_fl_model(4, 41, 101, max_defect=0.05), 4)
    draw = SampleDraw(indices=np.array(bad, dtype=np.int64), seed=0,
                      distribution_id=prof.distribution_id)
    with pytest.raises(sampling.InputValidationError):
        empirical_gram(prof, draw)


def test_warm_trial_memory_stays_below_one_n_by_ambient_matrix():
    # One Monte Carlo trial at ambient 20001 once the per-n memos are warm.
    # K and the deviation come from n x n forms, so no n x ambient complex
    # matrix (3.2 MB) is formed; what is live is a few ambient vectors such as
    # f, W_n x and f - W_n x (measured 0.70 MB).  A drawn ambient x m
    # sampling matrix alone would be 45 MB.
    model = build_fl_model(10, 20001, 20001)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(20001))

    def trial(seed):
        draw = draw_samples(prof, 142, seed)
        reconstruct(prof, draw, f)
        operator_norm(empirical_gram(prof, draw) - prof.sigma)
        cross_term_deviation(prof, draw)
        range_stability_check(prof, draw)

    trial(0)
    tracemalloc.start()
    try:
        trial(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 20001 * 16


def test_sampling_inside_reconstruction_space_gives_zero_k(monkeypatch):
    # Two sampling vectors inside a rotated W_3, so every residual u_j and
    # hence C_hat vanish: lambda_max of both forms is zero up to rounding,
    # and both fall back without a warning from the guard.
    calls = count_wide_calls(monkeypatch)
    rng = np.random.default_rng(5)
    w = np.zeros((6, 3), dtype=complex)
    w[:3] = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    model = build_selection_model(np.array([0, 1]), w)
    prof = leverage_profile(model, 3)
    f = np.arange(1.0, 7.0).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(4):
            draw = draw_samples(prof, 10, seed)
            assert reconstruct(prof, draw, f).k_factor <= 1e-12
            assert cross_term_deviation(prof, draw) <= 1e-12
    assert calls == [(3, 6)] * 8


# -- the dense-frame memos: U^H per n and S^H f per target ----------------------

def direct_dense_estimates(model, prof, draw):
    """K and ||C_hat - C|| from residuals (I - QQ^H) S[:, sel] formed afresh
    for the drawn columns, with Q, R, G_hat^+ and C computed independently of
    the package's memos and kernel."""
    s, w = model.s_matrix, model.w_coef[:, :prof.n]
    q, r = np.linalg.qr(w)
    sel, counts = np.unique(draw.indices, return_counts=True)
    vw = prof.v[:, sel] * (counts / (draw.m * prof.p[sel]))
    u_sel = s[:, sel] - q @ (q.conj().T @ s[:, sel])
    c_hat = vw @ u_sel.conj().T
    c = prof.v @ (s - q @ (q.conj().T @ s)).conj().T
    g_pinv = pseudo_inverse(vw @ prof.v[:, sel].conj().T)
    k = np.linalg.svd(r @ g_pinv @ c_hat, compute_uv=False)[0]
    return k, np.linalg.svd(c_hat - c, compute_uv=False)[0]


def check_dense_estimates(model, prof, draw, f) -> bool:
    """K and ||C_hat - C|| of the package against the direct estimates at
    1e-12; returns whether the draw is rank-deficient."""
    rep = reconstruct(prof, draw, f)
    k_ref, dev_ref = direct_dense_estimates(model, prof, draw)
    assert abs(rep.k_factor - k_ref) <= REL * k_ref, (prof.n, draw.m, draw.seed)
    assert abs(cross_term_deviation(prof, draw) - dev_ref) <= REL * dev_ref
    return rep.used_pseudo_inverse


@pytest.fixture(scope="module")
def haar_400():
    return unitary_frame(ambient=400)


def test_dense_memo_matches_direct_residuals(haar_400):
    model = haar_400
    prof = leverage_profile(model, 32)
    f = np.linspace(1.0, 2.0, 400).astype(complex)
    deficient = sum(check_dense_estimates(model, prof, draw_samples(prof, m, seed), f)
                    for m in (32, 48) for seed in range(6))
    assert deficient > 0  # rank-deficient draws are covered


def test_dense_memo_built_once_per_n(haar_400, monkeypatch):
    # U^H is built once per n, when that n is first used, and read again
    # after n switches back.
    model = build_frame_model(haar_400.s_matrix, haar_400.w_coef)
    resid = sampling._PerN.residuals
    calls = []
    monkeypatch.setattr(sampling._PerN, "residuals",
                        lambda rec: calls.append(rec.n) or resid(rec))
    f = np.linspace(1.0, 2.0, 400).astype(complex)
    profs = {n: leverage_profile(model, n) for n in (32, 16)}
    seen = []
    for n in (32, 16, 32):
        prof = profs[n]
        coherence_profile(prof)
        for seed in range(3):
            check_dense_estimates(model, prof, draw_samples(prof, 48, seed), f)
        seen.append(list(calls))
    assert seen == [[32], [32, 16], [32, 16]]
    for prof in profs.values():
        uh = prof._rec.uh
        assert uh.shape == (400, 400) and uh.flags.c_contiguous and not uh.flags.writeable


def test_selection_builds_no_dense_memo():
    for model, n in ((build_fl_model(10, 301, 301, max_defect=0.05), 10),
                     (build_selection_model(np.arange(4), np.eye(6, 4)), 4)):
        prof = leverage_profile(model, n)
        f = np.linspace(1.0, 2.0, model.ambient_dim).astype(complex)
        coherence_profile(prof)
        for seed in range(3):
            draw = draw_samples(prof, 20, seed)
            reconstruct(prof, draw, f)
            reconstruction_error(prof, draw, f)
            cross_term_deviation(prof, draw)
        # S^H f is a gather of f; no N_amb x J residual adjoint is formed.
        assert np.array_equal(model._memo["target"].shf, f[model.s_rows])
        assert "uh" not in vars(prof._rec)


def test_sample_memo_follows_a_target_changed_in_place(haar_400):
    model = haar_400
    prof = leverage_profile(model, 32)
    f = np.linspace(1.0, 2.0, 400).astype(complex)
    draw = draw_samples(prof, 48, 0)
    before = reconstruct(prof, draw, f)
    assert model._memo["target"].key == f.tobytes() and "shf" in vars(model._memo["target"])
    f[:50] += 1j
    after = reconstruct(prof, draw, f)
    # A fresh model of the same frame holds no memo to go stale.
    fresh = build_frame_model(model.s_matrix, model.w_coef)
    want = reconstruct(leverage_profile(fresh, 32), draw_samples(prof, 48, 0), f)
    assert after.err_l2 != before.err_l2
    assert after.err_l2 == want.err_l2
    assert np.array_equal(after.x_tilde, want.x_tilde)
    assert reconstruction_error(prof, draw, f) == want.err_l2
    assert np.array_equal(model._memo["target"].shf, model.s_matrix.conj().T @ f)


# -- the n-space forms: the drawn columns' residual Gram and the per-n products --

@pytest.mark.parametrize("make", [lambda: build_fl_model(10, 301, 301, max_defect=0.05),
                                  lambda: unitary_frame(ambient=100)], ids=["selection", "dense"])
def test_cross_products_built_once_per_profile(make, monkeypatch):
    model = make()
    shapes = []
    svd = sampling.svd_with_rank
    monkeypatch.setattr(sampling, "svd_with_rank", lambda a, *r: shapes.append(a.shape) or svd(a, *r))
    f = np.linspace(1.0, 2.0, model.ambient_dim).astype(complex)
    profs = {n: leverage_profile(model, n) for n in (8, 4)}
    parts = {}
    for n in (8, 4, 8):
        prof = profs[n]
        for seed in range(3):
            draw = draw_samples(prof, 20, seed)
            reconstruct(prof, draw, f)
            cross_term_deviation(prof, draw)
        rec = prof._rec
        got = (rec.v, rec.c, rec.cc, rec.b)
        assert all(x is y for x, y in zip(parts.setdefault(n, got), got))
        assert prof.v is rec.v and rec.model is model
        # Q^H is formed where it is read; no N_amb x n copy is kept.
        assert not hasattr(rec, "qh")
        c, cc, b, q = rec.c, rec.cc, rec.b, rec.q
        assert c is cross_term_matrix(prof)
        if model.s_rows is None:
            u = model.s_matrix - q @ (q.conj().T @ model.s_matrix)
            want_b = u.conj().T @ c.conj().T
        else:
            want_b = (c @ q).conj().T
        np.testing.assert_allclose(cc, c @ c.conj().T, rtol=0, atol=1e-12 * np.abs(cc).max())
        np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-12 * max(np.abs(want_b).max(), 1.0))
        assert not any(x.flags.writeable for x in got)
    # Each profile owns its record: a new profile at the same n, with another
    # distribution too, takes one SVD of W_n of its own, and its v, C and
    # both products carry the same bits.
    for p_spec in ("leverage", "uniform_on_support"):
        other = leverage_profile(model, 8, p_spec)
        cross_term_deviation(other, draw_samples(other, 20, 0))
        rec = other._rec
        assert rec is not profs[8]._rec and other.v is rec.v
        got = (rec.v, rec.c, rec.cc, rec.b)
        assert all(np.array_equal(x, y) for x, y in zip(parts[8], got))
    amb = model.ambient_dim
    assert [s for s in shapes if s[0] == amb] == [(amb, 8), (amb, 4), (amb, 8), (amb, 8)]


def test_residual_gram_is_a_slot_of_the_kernel():
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    draw = draw_samples(prof, 40, 1)
    reconstruct(prof, draw, f)
    # The K-factor reads only M, so reconstruct builds no C or its products.
    assert not {"c", "cc", "b"} & set(vars(prof._rec))
    kern = draw._memo["kernel"][1]
    first = kern.residual
    cross_term_deviation(prof, draw)
    assert kern.residual is first and draw._memo.keys() == {"checked", "kernel"}
    m, mu = first
    k = np.unique(draw.indices).size
    assert m.shape == (k, k) and mu == 1.0
    # A second profile on the same draw, of the model or of a twin, rebuilds
    # the kernel and with it M, to the same bits.
    twin = build_fl_model(10, 301, 301, max_defect=0.05)
    for other in (leverage_profile(model, 10), leverage_profile(twin, 10)):
        cross_term_deviation(other, draw)
        owner, rebuilt = draw._memo["kernel"]
        assert owner is other and rebuilt is not kern and rebuilt.residual is not first
        assert np.array_equal(rebuilt.residual[0], m)


def test_non_orthonormal_dense_frame_scales_the_guard_by_s_norm_squared(monkeypatch):
    # S = 3 x unitary: ||M|| is up to 9 = ||S||^2, the guard's mu, computed
    # once per model.  Both norms keep their n-space forms on these draws and
    # match the direct formulas.
    calls = count_wide_calls(monkeypatch)
    base = unitary_frame(ambient=100)
    model = build_frame_model(3.0 * base.s_matrix, base.w_coef)
    assert not model.sampling_is_orthonormal
    prof = leverage_profile(model, 32)
    f = np.linspace(1.0, 2.0, 100).astype(complex)
    s_norm2 = np.linalg.norm(model.s_matrix, 2) ** 2
    for seed in range(6):
        draw = draw_samples(prof, 48, seed)
        rep = reconstruct(prof, draw, f)
        m, mu = sampling._residual_gram(prof, draw)
        assert mu is model._s_norm2
        assert abs(mu - s_norm2) <= 1e-12 * s_norm2 and mu >= np.linalg.eigvalsh(m)[-1]
        k_ref = direct_k_factor(model, prof, draw)
        assert abs(rep.k_factor - k_ref) <= REL * k_ref, seed
        dev_ref = direct_cross_dev(model, prof, draw)
        assert abs(cross_term_deviation(prof, draw) - dev_ref) <= REL * dev_ref
    assert not calls


@pytest.mark.parametrize("command", ["mc-gram", "bounds"])
def test_one_svd_of_w_n_per_profile_and_no_qr(command, monkeypatch, capsys):
    # Q, the K-factor's diag(s) V^H and C all come from one SVD of W_n per
    # profile; no QR factorization is taken.  A command builds one profile
    # per n.
    dense = unitary_frame(ambient=100)  # built with a QR, before the check

    def refuse(*args, **kwargs):
        raise AssertionError("a QR factorization was taken")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    shapes = []
    svd = sampling.svd_with_rank
    monkeypatch.setattr(sampling, "svd_with_rank", lambda a, *r: shapes.append(a.shape) or svd(a, *r))
    argv = [command, "--model", "fl:n=10,ambient=301,max_defect=0.05", "--n", "8"]
    if command == "mc-gram":
        argv += ["--target", "exp_c:1", "--trials", "5"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == command
    assert [shape for shape in shapes if shape[0] == 301] == [(301, 8)]
    # The same through the API, on a dense frame, for two values of n; n = 32
    # is revisited with a new profile, which takes its own SVD.
    f = np.linspace(1.0, 2.0, 100).astype(complex)
    shapes.clear()
    for n in (32, 16, 32):
        prof = leverage_profile(dense, n)
        coherence_profile(prof)
        for seed in range(3):
            draw = draw_samples(prof, 48, seed)
            reconstruct(prof, draw, f)
            cross_term_deviation(prof, draw)
    assert [shape for shape in shapes if shape[0] == 100] == [(100, 32), (100, 16), (100, 32)]


@pytest.mark.parametrize("make", [lambda: build_fl_model(10, 301, 301, max_defect=0.05),
                                  lambda: unitary_frame(ambient=100)], ids=["selection", "dense"])
def test_a_dropped_profile_frees_its_record(make):
    # An API sweep over n holds one n's record at a time: the model keeps
    # only its target's record, so dropping a profile frees its n x J
    # interaction vectors and everything derived from its SVD of W_n.
    model = make()
    f = np.linspace(1.0, 2.0, model.ambient_dim).astype(complex)
    for n in (4, 8, 6, 8):
        prof = leverage_profile(model, n)
        coherence_profile(prof)
        for seed in range(3):
            draw = draw_samples(prof, 20, seed)
            reconstruct(prof, draw, f)
            cross_term_deviation(prof, draw)
        del draw  # its memo holds the profile
        alive = weakref.ref(prof.v)
        del prof
        assert alive() is None, n
        assert list(model._memo) == ["target"]


@pytest.mark.parametrize("command", ["reconstruct", "mc-gram", "bounds", "leverage", "convergence"])
def test_commands_leave_no_per_n_record_on_the_model(command, monkeypatch, capsys):
    built = []
    build = cli._build_model
    monkeypatch.setattr(cli, "_build_model", lambda cfg: built.append(build(cfg)) or built[-1])
    argv = [command, "--model", "fl:n=8,ambient=301,max_defect=0.05"]
    argv += {"reconstruct": ["--target", "exp_c:1"],
             "mc-gram": ["--target", "exp_c:1", "--trials", "3"],
             "convergence": ["--n", "4,5,6,8", "--trials", "2"]}.get(command, [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    [(model, _)] = built
    assert set(model._memo) <= {"target"}


# -- the error-bound check: a rounding slack c u ||f||, c = 1e3 -----------------

@pytest.mark.parametrize("make", [lambda: build_fl_model(10, 301, 301, max_defect=0.05),
                                  lambda: unitary_frame(ambient=100)], ids=["fl", "dense"])
def test_planted_bound_violation_below_1e8_reads_false(make):
    model = make()
    prof = leverage_profile(model, model.num_reconstruction)
    f = (exp_target(1.0).fourier_coef(frequencies(model.ambient_dim))
         if model.s_rows is not None else np.linspace(1.0, 2.0, 100).astype(complex))
    draw = next(d for d in (draw_samples(prof, 3 * prof.n, s) for s in range(20))
                if not reconstruct(prof, d, f).used_pseudo_inverse)
    rep = reconstruct(prof, draw, f)
    slack = 1e3 * np.finfo(float).eps / 2 * np.linalg.norm(f)
    scale = np.sqrt(1.0 + rep.k_factor**2)
    # A tail planted in the target's record sets the bound to err_l2 minus a
    # margin.
    for margin, ok in ((1e-10, False), (4 * slack, False), (slack / 4, True)):
        model._memo["target"].tails[prof.n] = (rep.err_l2 - margin) / scale
        assert reconstruct(prof, draw, f).bound_ok is ok, margin


@pytest.fixture(scope="module")
def fl_2001():
    return build_fl_model(20, 2001, 2001)


@pytest.mark.parametrize("target", [exp_target(1.0), pole_target(1.5)])
@pytest.mark.parametrize("n,m", [(4, 47), (10, 142), (20, 320)])
def test_measured_fl_draws_meet_the_bound(fl_2001, target, n, m):
    prof = leverage_profile(fl_2001, n)
    f = target.fourier_coef(frequencies(2001))
    for seed in range(25):
        rep = reconstruct(prof, draw_samples(prof, m, seed), f)
        assert rep.used_pseudo_inverse or rep.bound_ok, seed


def test_measured_dense_draws_meet_the_bound(haar_400):
    prof = leverage_profile(haar_400, 32)
    f = np.linspace(1.0, 2.0, 400).astype(complex)
    full = 0
    for seed in range(40):
        rep = reconstruct(prof, draw_samples(prof, 48, seed), f)
        full += not rep.used_pseudo_inverse
        assert rep.used_pseudo_inverse or rep.bound_ok, seed
    assert full > 20


# -- the per-trial shortcuts: one check per draw, one sort, one target record --

def report_fields(rep):
    return (rep.x_tilde.tobytes(), rep.f_tilde_coef.tobytes(), rep.err_l2, rep.tail_err,
            rep.k_factor, rep.bound_ok, rep.gram_condition, rep.used_pseudo_inverse,
            rep.residual_weighted)


@pytest.mark.parametrize("bad", ["index J", "negative index", "other distribution",
                                 "drawn under another distribution"])
def test_hand_built_and_foreign_draws_are_still_checked(bad):
    model = build_fl_model(4, 41, 101, max_defect=0.05)
    prof = leverage_profile(model, 4)
    other = leverage_profile(model, 4, "uniform_on_support")
    f = exp_target(1.0).fourier_coef(frequencies(101))
    indices = draw_samples(prof, 10, 0).indices.copy()
    if bad == "drawn under another distribution":
        draw = draw_samples(other, 10, 0)
    else:
        ident = other.distribution_id if bad == "other distribution" else prof.distribution_id
        indices[3] = {"index J": 41, "negative index": -1}.get(bad, indices[3])
        draw = SampleDraw(indices=indices, seed=0, distribution_id=ident)
    calls = [lambda: reconstruct(prof, draw, f),
             lambda: reconstruction_error(prof, draw, f),
             lambda: cross_term_deviation(prof, draw)]
    for call in calls:
        with pytest.raises(sampling.InputValidationError, match="draw"):
            call()


def test_draws_of_draw_samples_pass_only_their_own_profile():
    model = build_fl_model(4, 41, 101, max_defect=0.05)
    prof = leverage_profile(model, 4)
    f = exp_target(1.0).fourier_coef(frequencies(101))
    draw = draw_samples(prof, 10, 2)
    assert draw._memo["checked"] is prof
    # A hand-built copy and another profile of the same distribution are
    # checked in full and give the same bits.
    twin = leverage_profile(model, 4)
    copy = SampleDraw(indices=draw.indices.copy(), seed=2, distribution_id=prof.distribution_id)
    want = report_fields(reconstruct(prof, draw, f))
    assert report_fields(reconstruct(prof, copy, f)) == want
    assert report_fields(reconstruct(twin, draw, f)) == want
    assert "checked" not in copy._memo


def test_writeable_target_changed_in_place_gives_the_new_result():
    model = build_fl_model(10, 301, 301, max_defect=0.05)
    prof = leverage_profile(model, 10)
    f = exp_target(1.0).fourier_coef(frequencies(301))
    draw = draw_samples(prof, 40, 4)
    before = reconstruct(prof, draw, f)
    f[::7] += 0.25j
    after = reconstruct(prof, draw, f)
    fresh = build_fl_model(10, 301, 301, max_defect=0.05)
    want = reconstruct(leverage_profile(fresh, 10), draw_samples(prof, 40, 4), f.copy())
    assert report_fields(after) == report_fields(want) != report_fields(before)


@pytest.mark.parametrize("indices", [
    [7], [3, 3, 3, 3], [5, 0, 5, 2, 0, 9, 9, 9], list(range(20, 0, -1)),
    np.random.default_rng(0).integers(0, 50, size=200),
], ids=["m=1", "all equal", "repeats", "descending", "random"])
def test_distinct_indices_and_counts_match_np_unique(indices):
    idx = np.asarray(indices, dtype=np.int64)
    sel, counts = sampling._distinct(idx)
    want_sel, want_counts = np.unique(idx, return_counts=True)
    assert np.array_equal(sel, want_sel) and np.array_equal(counts, want_counts)
    assert sel.dtype == want_sel.dtype and counts.dtype == want_counts.dtype


# -- the deviations and the profile/model rule ------------------------------------

def test_gram_deviation_is_the_norm_of_g_hat_minus_sigma(case):
    # The n x n difference is exactly Hermitian, so its eigenvalues give the
    # norm: the bits of _hermitian_norm, and operator_norm and the largest
    # singular value to 1e-12 relative.
    _, prof, ms, _ = case
    for m in ms:
        draw = draw_samples(prof, m, 5)
        diff = empirical_gram(prof, draw) - prof.sigma
        got = sampling.gram_deviation(prof, draw)
        assert got == linalg._hermitian_norm(diff)
        for want in (operator_norm(diff), np.linalg.svd(diff, compute_uv=False)[0]):
            assert abs(got - want) <= REL * want


def identity_and_dense_twin():
    """identity:8 and a dense 8 x 8 unitary frame with the same W = I."""
    rng = np.random.default_rng(11)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    return build_selection_model(np.arange(8), np.eye(8)), build_frame_model(s, np.eye(8))


def estimator_results(prof, draw, f):
    return {
        "coherence_profile": coherence_profile(prof),
        "cross_term_matrix": cross_term_matrix(prof),
        "empirical_cross_term": empirical_cross_term(prof, draw),
        "cross_term_deviation": cross_term_deviation(prof, draw),
        "reconstruct": report_fields(reconstruct(prof, draw, f)),
        "reconstruction_error": reconstruction_error(prof, draw, f),
    }


@pytest.mark.parametrize("kind", ["selection", "dense"])
def test_a_twin_models_own_profile_gives_the_same_bits(kind):
    # Two content-equal models, each read through its own profile and draw:
    # every estimator reaches the model through the profile, and the twin's
    # results keep the model's bits.
    got = []
    for _ in range(2):
        model = identity_and_dense_twin()[kind == "dense"]
        prof = leverage_profile(model, 4)
        got.append(estimator_results(prof, draw_samples(prof, 20, 0), np.ones(8, dtype=complex)))
    want, twin = got
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(twin[name], value), name
        else:
            assert twin[name] == value, name


@pytest.mark.parametrize("shape", [(2, 4), (8, 1), ()])
def test_a_target_that_is_not_a_vector_is_rejected(shape):
    # A (2, 4) target was read as an 8-vector with no error.
    model = build_selection_model(np.arange(8), np.eye(8))
    prof = leverage_profile(model, 4)
    draw = draw_samples(prof, 20, 0)
    f = np.ones(shape, dtype=complex)
    for fn in (reconstruct, reconstruction_error):
        with pytest.raises(sampling.InputValidationError, match="f_coef must be one-dimensional"):
            fn(prof, draw, f)


@pytest.mark.parametrize("shape", [(2, 4), (8, 1)])
def test_a_custom_p_that_is_not_a_vector_is_rejected(shape):
    model = build_selection_model(np.arange(8), np.eye(8))
    with pytest.raises(sampling.InputValidationError, match="p_spec must be one-dimensional"):
        leverage_profile(model, 4, np.ones(shape))
