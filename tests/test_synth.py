import itertools

import numpy as np
import pytest

import dpdetect.synth as synth_mod
from dpdetect import (
    InfeasibleError,
    SynthConfig,
    ValidationError,
    objective_value,
    rect_template,
    sample_placements,
    synthesize,
    validate_placements,
)


def test_rect_lengths():
    assert np.array_equal(rect_template(30).samples, np.ones(30))
    assert np.array_equal(rect_template(1).samples, [1.0])
    assert np.array_equal(rect_template(20).samples, np.ones(20))


def test_sample_dense_regime_gaps():
    cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=0.0)
    for seed in range(20):
        p = sample_placements(cfg, np.random.default_rng(seed))
        assert len(p) == 6
        assert np.diff(p.starts).min() >= 30
        assert validate_placements(p, 300, 30)


def test_sample_well_separated_gaps():
    cfg = SynthConfig(n_samples=300, length=30, k=3, sigma2=0.0, separation="well_separated")
    for seed in range(20):
        p = sample_placements(cfg, np.random.default_rng(seed))
        assert len(p) == 3
        assert np.diff(p.starts).min() >= 60
        assert validate_placements(p, 300, 30, well_separated=True)


def test_sample_unique_feasible_configuration():
    cfg = SynthConfig(n_samples=10, length=5, k=2, sigma2=0.0)
    for seed in range(10):
        p = sample_placements(cfg, np.random.default_rng(seed))
        np.testing.assert_array_equal(p.starts, [0, 5])


def test_sample_density_precheck():
    cfg = SynthConfig(n_samples=100, length=30, k=4, sigma2=0.0)  # 4*30 > 100
    with pytest.raises(InfeasibleError):
        sample_placements(cfg, np.random.default_rng(0))


def test_well_separated_fits_at_the_bound():
    # (k-1) * 2L + L = 50: only {0, 20, 40} fits, and k * 2L = 60 > N.
    cfg = SynthConfig(n_samples=50, length=10, k=3, sigma2=0.0, separation="well_separated")
    for seed in range(5):
        assert sample_placements(cfg, np.random.default_rng(seed)).starts.tolist() == [0, 20, 40]


def _fits(n, length, k, gap):
    """Some k starts in [0, n - length] lie at least gap apart (brute force)."""
    starts = range(n - length + 1)
    return any(
        all(b - a >= gap for a, b in zip(c, c[1:]))
        for c in itertools.combinations(starts, k)
    )


def test_feasibility_precheck_matches_brute_force():
    for n, length, k, separation in itertools.product(
        range(1, 15), range(1, 5), range(1, 5), ("arbitrary", "well_separated")
    ):
        if length > n:
            continue
        cfg = SynthConfig(
            n_samples=n, length=length, k=k, sigma2=0.0, separation=separation
        )
        rng = np.random.default_rng(n)
        if _fits(n, length, k, cfg.min_gap):
            p = sample_placements(cfg, rng)
            assert len(p) == k
            assert validate_placements(p, n, length, separation == "well_separated")
        else:
            with pytest.raises(InfeasibleError, match="cannot fit"):
                sample_placements(cfg, rng)
            assert rng.random() == np.random.default_rng(n).random()  # drew nothing


def test_sample_attempt_cap(monkeypatch):
    # Only {0, 5, 10} fits; a dead-ending first draw with a cap of one must fail.
    monkeypatch.setattr(synth_mod, "MAX_ATTEMPTS", 1)
    cfg = SynthConfig(n_samples=15, length=5, k=3, sigma2=0.0, seed=0)
    with pytest.raises(InfeasibleError):
        sample_placements(cfg, np.random.default_rng(0))


def test_adjacent_rectangles_tile():
    cfg = SynthConfig(n_samples=6, length=3, k=2, sigma2=0.0)
    y, truth = synthesize(cfg, rect_template(3))
    np.testing.assert_array_equal(y.samples, np.ones(6))
    np.testing.assert_array_equal(truth.starts, [0, 3])


def test_noiseless_objective_is_k_times_energy():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(12)
    cfg = SynthConfig(n_samples=150, length=12, k=5, sigma2=0.0, seed=21)
    y, truth = synthesize(cfg, x)
    energy = float(np.dot(x, x))
    assert objective_value(y, x, truth) == pytest.approx(5 * energy, rel=1e-12)


def test_noise_variance_chi_square_bound():
    # 99% interval for a 300-sample variance estimate at sigma2=2.
    cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=2.0, seed=77)
    y, truth = synthesize(cfg, rect_template(30))
    clean = np.zeros(300)
    for s in truth.starts:
        clean[s : s + 30] += 1.0
    residual = y.samples - clean
    assert 1.6 <= residual.var() <= 2.4


def test_template_length_mismatch():
    cfg = SynthConfig(n_samples=50, length=10, k=2, sigma2=0.0)
    with pytest.raises(ValidationError):
        synthesize(cfg, rect_template(9))


def test_seeded_reproducibility():
    cfg = SynthConfig(n_samples=200, length=20, k=4, sigma2=1.5, seed=99)
    y1, t1 = synthesize(cfg, rect_template(20))
    y2, t2 = synthesize(cfg, rect_template(20))
    np.testing.assert_array_equal(y1.samples, y2.samples)
    np.testing.assert_array_equal(t1.starts, t2.starts)


# Starts and the generator's next draw, recorded from the rng.choice-based
# sampler: a change to the draws or to the stream they consume shows here.
@pytest.mark.parametrize(
    "seed, separation, n, length, k, starts, next_draw",
    [
        (0, "arbitrary", 300, 30, 6, [25, 78, 135, 179, 230, 260], 0.016527635528529094),
        (1, "well_separated", 300, 30, 3, [63, 128, 196], 0.14415961271963373),
        (5, "arbitrary", 120, 12, 4, [1, 56, 73, 92], 0.515325561042142),
        (
            1, "arbitrary", 1000, 20, 30,
            [8, 28, 69, 102, 152, 200, 224, 246, 267, 293, 315, 339, 366, 399,
             426, 464, 521, 558, 619, 644, 670, 699, 721, 759, 779, 809, 830,
             868, 905, 938],
            0.4534978894806515,
        ),
    ],
)
def test_sample_placements_pinned_draws(
    seed, separation, n, length, k, starts, next_draw
):
    cfg = SynthConfig(
        n_samples=n, length=length, k=k, sigma2=0.0, separation=separation, seed=seed
    )
    rng = np.random.default_rng(seed)
    assert sample_placements(cfg, rng).starts.tolist() == starts
    assert rng.random() == next_draw


def test_random_configs_always_valid():
    rng = np.random.default_rng(22)
    for _ in range(50):
        length = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        sep = str(rng.choice(["arbitrary", "well_separated"]))
        mult = 1 if sep == "arbitrary" else 2
        n = int(rng.integers(k * length * mult, 2 * k * length * mult + 10))
        cfg = SynthConfig(n_samples=n, length=length, k=k, sigma2=0.5, separation=sep)
        y, truth = synthesize(cfg, rect_template(length), rng)
        assert y.length == n
        assert validate_placements(truth, n, length, well_separated=sep == "well_separated")


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(n_samples=5, length=10, k=1, sigma2=0.0)
    with pytest.raises(ValidationError):
        SynthConfig(n_samples=50, length=10, k=0, sigma2=0.0)
    with pytest.raises(ValidationError):
        SynthConfig(n_samples=50, length=10, k=1, sigma2=-1.0)
    for sigma2 in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            SynthConfig(n_samples=50, length=10, k=1, sigma2=sigma2)
    with pytest.raises(ValidationError):
        SynthConfig(n_samples=50, length=10, k=1, sigma2=0.0, separation="diagonal")


def reference_sample(cfg, rng):
    """Each start uniform over the eligible positions, as a boolean mask."""
    gap = cfg.min_gap
    positions = np.arange(cfg.n_samples - cfg.length + 1)
    while True:
        eligible = np.ones(positions.size, dtype=bool)
        starts = []
        for _ in range(cfg.k):
            candidates = positions[eligible]
            if candidates.size == 0:
                break
            s = int(rng.choice(candidates))
            starts.append(s)
            eligible[max(0, s - gap + 1) : s + gap] = False
        else:
            return sorted(starts)


@pytest.mark.parametrize(
    "n, length, k, separation",
    [
        (300, 30, 6, "arbitrary"),
        (300, 30, 3, "well_separated"),
        (120, 12, 4, "well_separated"),  # dead ends restart about one draw in six
        (61, 6, 5, "well_separated"),  # most draws restart
        (100, 10, 5, "arbitrary"),
        # One eligible position: integers(0, 1) takes no draw, and neither
        # does rng.choice over one candidate.
        (30, 30, 1, "arbitrary"),
    ],
)
def test_sample_placements_match_mask_reference(n, length, k, separation):
    cfg = SynthConfig(n_samples=n, length=length, k=k, sigma2=0.0, separation=separation)
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_placements(cfg, a).starts.tolist() == reference_sample(cfg, b)
        assert a.random() == b.random()


# Block seeding and raw-stream draws against live numpy: Generator's bounded
# integers are not frozen by NEP 19, so a change in numpy must fail here.
@pytest.mark.parametrize(
    "seeds",
    [
        [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1],
        list(range(2**32 - 40, 2**32 + 40)),
        list(range(2**64 - 3, 2**64 + 3)) + [2**96 - 1, 2**96, 7, 2**100 + 12345],
        [],
    ],
    ids=["words", "across-2**32", "across-2**64", "empty"],
)
def test_pcg64_states_equal_numpy(seeds):
    assert synth_mod.pcg64_states(seeds) == [np.random.PCG64(s).state for s in seeds]


def test_pcg64_states_refuses_out_of_range_seeds():
    for seeds in ([3, -1], [2**128]):
        with pytest.raises(ValidationError, match="seeds must lie in"):
            synth_mod.pcg64_states(seeds)


BOUNDS = [1, 2, 271, 2**31, 3 * 10**9, 2**32 - 1, 2**32]


def test_stream_draws_equal_numpy_integers():
    # 1-9 draws a seed over bounds mixed at random (3e9 rejects about 30%
    # of words), a normal row part way, then the generator's next double.
    # The draws object is reused, so a high half left over from one seed
    # must not reach the next.
    choose = np.random.default_rng(2024)
    draws = synth_mod.StreamDraws()
    got_row, want_row = np.empty(5), np.empty(5)
    for seed in range(3000):
        bounds = [BOUNDS[i] for i in choose.integers(0, len(BOUNDS), choose.integers(1, 10))]
        split = int(choose.integers(0, len(bounds) + 1))
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(0, n)) for n in bounds[:split]]
        rng.standard_normal(out=want_row)
        want += [int(rng.integers(0, n)) for n in bounds[split:]]
        draws.start(synth_mod.pcg64_states([seed])[0])
        got = [draws.integers(0, n) for n in bounds[:split]]
        draws.generator.standard_normal(out=got_row)
        got += [draws.integers(0, n) for n in bounds[split:]]
        assert got == want, (seed, bounds)
        assert np.array_equal(got_row, want_row)
        assert draws.generator.random() == rng.random()


def test_stream_draws_sample_starts_as_generator():
    # Restarts included: K = 25 of L = 30 in N = 1000 dead-ends often.
    cfgs = [
        SynthConfig(n_samples=1000, length=30, k=25, sigma2=0.0),
        SynthConfig(n_samples=61, length=5, k=5, sigma2=0.0, separation="well_separated"),
        SynthConfig(n_samples=30, length=30, k=1, sigma2=0.0),
    ]
    seeds = range(500)
    draws = synth_mod.StreamDraws()
    for cfg in cfgs:
        for seed, state in zip(seeds, synth_mod.pcg64_states(seeds)):
            draws.start(state)
            rng = np.random.default_rng(seed)
            assert synth_mod.sample_starts(cfg, draws) == synth_mod.sample_starts(cfg, rng)
            assert draws.generator.random() == rng.random()
