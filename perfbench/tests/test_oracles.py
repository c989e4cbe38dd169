"""Tests of the benchmark's oracles and of the workload checks built on them.

    python3 -m pytest perfbench/tests -q

The oracles are compared with brute-force enumeration on tiny instances,
and every check is shown to reject a perturbed output: a shifted start, an
objective off by 1e-6 relative, a non-concave curve, a wrong mean F1, a
track outside the box.
"""

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import dpdetect  # noqa: E402
import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def separated_sets(m, length, k):
    for combo in itertools.combinations(range(m), k):
        if all(b - a >= length for a, b in zip(combo, combo[1:])):
            yield combo


def brute_optimum(w, length, k):
    return max((sum(w[s] for s in c), c) for c in separated_sets(w.size, length, k))


@pytest.mark.parametrize("seed", range(40))
def test_exact_optima_and_starts_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, length = int(rng.integers(6, 16)), int(rng.integers(1, 5))
    y = rng.normal(0.2, 1.0, n)
    w = O.window_sums(y, length)
    assert np.allclose(w, [y[s : s + length].sum() for s in range(w.size)])
    fit = -(-w.size // length)
    optima = O.exact_optima(w, length, range(0, fit + 1))
    for k in range(1, fit + 1):
        best, _ = brute_optimum(w, length, k)
        assert optima[k] == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert O.set_weight(w, O.exact_starts(w, length, k)) == pytest.approx(best, abs=1e-12)
    with pytest.raises(ValueError):
        O.exact_optima(w, length, [fit + 1])


def test_greedy_starts_blocks_neighbours_and_saturates():
    w = np.array([1.0, 5.0, 4.0, 0.0, 3.0, 2.0])
    assert O.greedy_starts(w, 2, 2) == [1, 4]
    assert O.greedy_starts(w, 3, 5) == [1, 4]  # only two fit around the first pick


def test_f1_score_matches_pairwise_matching():
    rng = np.random.default_rng(0)
    for _ in range(200):
        length = int(rng.integers(2, 9))
        truth = sorted(rng.choice(60, 4, replace=False) * length // 2)
        truth = [t for i, t in enumerate(truth) if i == 0 or t - truth[i - 1] >= length]
        est = sorted(rng.choice(200, int(rng.integers(0, 5)), replace=False))
        est = [e for i, e in enumerate(est) if i == 0 or e - est[i - 1] >= length]
        rep = dpdetect.score(
            dpdetect.PlacementSet(truth, length), dpdetect.PlacementSet(est, length),
            length, max(len(truth), 1),
        )
        assert O.f1_score(truth, est, length) == pytest.approx(rep.f1, abs=1e-15)


def test_check_detection_rejects_shifted_start_and_objective():
    rng = np.random.default_rng(1)
    y = rng.normal(0.0, 1.0, 200)
    w = O.window_sums(y, 10)
    starts = O.exact_starts(w, 10, 4)
    objective = O.set_weight(w, starts)
    O.check_detection(starts, objective, y, 10)
    shifted = list(starts)
    shifted[1] += 1
    with pytest.raises(O.Mismatch):
        O.check_detection(shifted, objective, y, 10)
    with pytest.raises(O.Mismatch):
        O.check_detection(starts, objective * (1 + 1e-6), y, 10)
    with pytest.raises(O.Mismatch):
        O.check_placements([0, 9], 200, 10)  # overlapping
    with pytest.raises(O.Mismatch):
        O.check_placements([191], 200, 10)  # past N - L


def test_check_concave_nondecreasing_rejects_bumps():
    good = np.array([3.0, 5.0, 6.5, 7.5, 8.0])
    O.check_concave_nondecreasing(good, "curve")
    bumped = good.copy()
    bumped[3] = 6.7  # gains 2, 1.5, 0.2, 1.3: still increasing, not concave
    with pytest.raises(O.Mismatch, match="concave"):
        O.check_concave_nondecreasing(bumped, "curve")
    with pytest.raises(O.Mismatch, match="decreases"):
        O.check_concave_nondecreasing(good[::-1], "curve")


def test_check_convex_track_rejects_box_and_residual():
    rng = np.random.default_rng(2)
    x = np.ones(4)
    s = np.clip(rng.normal(0.3, 0.3, 30), 0, 1)
    y = rng.normal(0.0, 1.0, 30)
    res = O.circular_residual_sq(y, x, s)
    fft = np.fft.irfft(np.fft.rfft(s) * np.fft.rfft(x, 30), 30)
    assert res == pytest.approx(float(np.sum((y - fft) ** 2)), rel=1e-12)
    O.check_convex_track(y, x, s, res, res * 1.01)
    with pytest.raises(O.Mismatch, match="box"):
        O.check_convex_track(y, x, s + 1.0, res, res * 1.01)
    with pytest.raises(O.Mismatch, match="residual_sq"):
        O.check_convex_track(y, x, s, res * (1 + 1e-6), res * 1.01)
    with pytest.raises(O.Mismatch, match="budget"):
        O.check_convex_track(y, x, s, res, res * 0.99)


# -- the workloads' checks, on scaled-down inputs ----------------------------


class SmallCli(W.CliDetectLong):
    n_samples, k = 3000, 6


class SmallUnknownK(W.UnknownK):
    n_samples, k_true, k_max, perms, pool = 600, 4, 8, 5, 1


class SmallSweep(W.PaperSweep):
    grid, trials = (1.0,), 4


class SmallConvex(W.ConvexSmall):
    n_samples, length, k, grid, draws = 40, 5, 2, (0.5,), 1


def test_cli_check_rejects_perturbed_output(tmp_path):
    wl = SmallCli(3, tmp_path)
    run, check, ops = wl.round(0)[0]
    assert check(run()) == 0
    good = json.loads(wl.out.read_text())
    for bad in (
        {**good, "starts": [good["starts"][0] + 1] + good["starts"][1:]},
        {**good, "objective": good["objective"] * (1 + 1e-6)},
    ):
        wl.out.write_text(json.dumps(bad))
        with pytest.raises(O.Mismatch):
            check(0)
    assert check(1) == 1  # a CLI error exit is a failed operation


def test_unknown_k_check_rejects_perturbed_output(tmp_path):
    wl = SmallUnknownK(4, tmp_path)
    (run, check, ops), = wl.round(0)
    k_hat, result = run()
    assert check((k_hat, result)) == 0
    with pytest.raises(O.Mismatch, match="argmax"):
        check((k_hat + 1, result))
    with pytest.raises(O.Mismatch):
        check((k_hat, replace(result, objective=result.objective * (1 + 1e-6))))
    y, template, cfg, curve, opt = wl.cases[0]
    off = replace(curve, actual=curve.actual * (1 + 1e-6))
    with pytest.raises(O.Mismatch, match="actual"):
        wl.check((k_hat, result), y, off, opt)
    bent = curve.actual.copy()
    bent[2] = 0.5 * (bent[1] + bent[3]) - 1e-3  # still increasing, no longer concave
    bent_opt = dict(enumerate(bent, start=1))
    with pytest.raises(O.Mismatch, match="concave"):
        wl.check((k_hat, result), y, replace(curve, actual=bent), bent_opt)


def test_paper_sweep_check_rejects_perturbed_f1(tmp_path):
    wl = SmallSweep(5, tmp_path)
    run, check, ops = wl.round(0)[0]
    out = run()
    assert check(out) == 0
    for method in ("dp", "greedy"):
        bad = [[replace(r, mean_f1=r.mean_f1 + 1e-6) if r.method == method else r
                for r in records] for records in out]
        with pytest.raises(O.Mismatch, match=method):
            check(bad)
    bad = [[replace(r, mean_f1=1.5) if r.method == "random" else r for r in records]
           for records in out]
    with pytest.raises(O.Mismatch, match="outside"):
        check(bad)


def test_convex_check_rejects_perturbed_track(tmp_path):
    wl = SmallConvex(6, tmp_path)
    run, check, ops = wl.round(0)[0]
    out = run()
    assert check(out) == 0
    (result, track), = out
    moved = replace(track, s=np.minimum(track.s + 0.5, 1.0))
    with pytest.raises(O.Mismatch):
        check([(result, moved)])
    assert check([None]) == 1  # a solver error is a failed operation
