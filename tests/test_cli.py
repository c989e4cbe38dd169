import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpdetect.cli import main
from dpdetect.io import read_measurement


def run(args):
    return main([str(a) for a in args])


def test_gen_writes_measurement_and_truth(tmp_path):
    prefix = tmp_path / "m"
    assert run(["gen", "--n", 300, "--l", 30, "--k", 6, "--sigma2", 2.0,
                "--seed", 1, "--out", prefix]) == 0
    y = read_measurement(f"{prefix}.txt")
    assert y.length == 300
    truth = json.loads((tmp_path / "m.json").read_text())
    assert truth["N"] == 300 and truth["L"] == 30
    assert truth["sigma2"] == 2.0 and truth["well_separated"] is False
    assert len(truth["starts"]) == 6
    assert min(np.diff(truth["starts"])) >= 30


def test_gen_well_separated(tmp_path):
    prefix = tmp_path / "w"
    assert run(["gen", "--n", 300, "--l", 30, "--k", 3, "--sep", "well",
                "--seed", 2, "--out", prefix]) == 0
    truth = json.loads((tmp_path / "w.json").read_text())
    assert truth["well_separated"] is True
    assert min(np.diff(truth["starts"])) >= 60


@pytest.fixture()
def noiseless(tmp_path):
    prefix = tmp_path / "clean"
    run(["gen", "--n", 300, "--l", 30, "--k", 6, "--sigma2", 0.0,
         "--seed", 3, "--out", prefix])
    truth = json.loads((tmp_path / "clean.json").read_text())
    return f"{prefix}.txt", truth


def test_detect_dp_recovers_noiseless_truth(noiseless, tmp_path):
    meas, truth = noiseless
    out = tmp_path / "det.json"
    assert run(["detect", "--in", meas, "--rect", 30, "--method", "dp",
                "--k", 6, "--out", out]) == 0
    result = json.loads(out.read_text())
    assert result["method"] == "dp"
    assert result["starts"] == truth["starts"]
    assert result["k_hat"] == 6
    assert result["objective"] == pytest.approx(180.0)


def test_detect_greedy_and_random(noiseless, tmp_path):
    meas, _ = noiseless
    for method in ("greedy", "random"):
        out = tmp_path / f"{method}.json"
        assert run(["detect", "--in", meas, "--rect", 30, "--method", method,
                    "--k", 6, "--seed", 5, "--out", out]) == 0
        result = json.loads(out.read_text())
        assert result["method"] == method and result["k_hat"] == 6


def test_detect_estimate_k(noiseless, tmp_path):
    meas, truth = noiseless
    out = tmp_path / "est.json"
    assert run(["detect", "--in", meas, "--rect", 30, "--estimate-k",
                "--kmax", 10, "--perms", 30, "--seed", 4, "--out", out]) == 0
    result = json.loads(out.read_text())
    assert result["k_estimate"] == 6
    assert result["starts"] == truth["starts"]


def test_detect_convex(tmp_path):
    prefix = tmp_path / "small"
    run(["gen", "--n", 60, "--l", 10, "--k", 2, "--sigma2", 0.5,
         "--seed", 8, "--out", prefix])
    out = tmp_path / "cvx.json"
    assert run(["detect", "--in", f"{prefix}.txt", "--rect", 10,
                "--method", "convex", "--k", 2, "--sigma2", 0.5,
                "--out", out]) == 0
    result = json.loads(out.read_text())
    assert result["method"] == "convex"
    assert "residual_sq" in result and "lambda" in result


def test_detect_missing_k_is_validation_error(noiseless, capsys):
    meas, _ = noiseless
    assert run(["detect", "--in", meas, "--rect", 30]) == 1
    assert capsys.readouterr().err.startswith("error:validation:")


def test_detect_infeasible_k(noiseless, capsys):
    meas, _ = noiseless
    assert run(["detect", "--in", meas, "--rect", 30, "--k", 50]) == 1
    assert capsys.readouterr().err.startswith("error:infeasible:")


def test_detect_convex_infeasible_budget(tmp_path, capsys):
    meas = tmp_path / "negative.txt"
    meas.write_text("-3\n" * 50)
    assert run(["detect", "--in", meas, "--rect", 5, "--method", "convex",
                "--k", 1, "--delta", 1.0]) == 1
    assert capsys.readouterr().err.startswith("error:infeasible:")


def test_missing_file_is_io_error(capsys, tmp_path):
    assert run(["detect", "--in", tmp_path / "absent.txt", "--rect", 5, "--k", 1]) == 1
    assert capsys.readouterr().err.startswith("error:io:")


def test_gapcurve_csv(noiseless, tmp_path):
    meas, _ = noiseless
    out = tmp_path / "curve.csv"
    assert run(["gapcurve", "--in", meas, "--rect", 30, "--kmax", 8,
                "--perms", 20, "--seed", 6, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "K,actual,null_mean,gap"
    assert len(lines) == 9
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert int(np.argmax(gaps)) + 1 == 6


def test_whiten_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    src = tmp_path / "noisy.txt"
    src.write_text("\n".join(f"{v:.17g}" for v in rng.standard_normal(1500)) + "\n")
    out = tmp_path / "white.txt"
    assert run(["whiten", "--in", src, "--noise-region", "0:1024",
                "--window", 256, "--out", out]) == 0
    w = read_measurement(out)
    assert w.length == 1500


def test_whiten_bad_region(tmp_path, capsys):
    src = tmp_path / "short.txt"
    src.write_text("\n".join(["1.0"] * 100) + "\n")
    assert run(["whiten", "--in", src, "--noise-region", "0:100"]) == 1
    assert capsys.readouterr().err.startswith("error:validation:")


def test_bench_flags(tmp_path):
    out = tmp_path / "bench.csv"
    svg = tmp_path / "bench.svg"
    assert run(["bench", "--n", 120, "--l", 12, "--k", 4,
                "--sigma2-grid", "0.5,2", "--trials", 10,
                "--methods", "dp,greedy", "--seed", 12,
                "--out", out, "--svg", svg]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sigma2,method,k_mode,f1,recall,precision,k_err,trials"
    assert len(lines) == 5
    assert svg.read_text().count("<polyline") == 2


def test_bench_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_samples": 120, "length": 12, "k": 4,
        "sigma2_grid": [1.0], "trials": 5, "methods": ["dp"], "seed": 3,
    }))
    out = tmp_path / "fromcfg.csv"
    assert run(["bench", "--config", cfg, "--out", out]) == 0
    assert out.exists()


def test_bench_seed_flag_overrides_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_samples": 120, "length": 12, "k": 4,
        "sigma2_grid": [1.0], "trials": 5, "methods": ["random"], "seed": 5,
    }))
    paths = {}
    for name, seed_args in (("none", []), ("s0", ["--seed", 0]), ("s5", ["--seed", 5])):
        paths[name] = tmp_path / f"{name}.csv"
        assert run(["bench", "--config", cfg, *seed_args, "--out", paths[name]]) == 0
    text = {name: p.read_text() for name, p in paths.items()}
    assert text["none"] == text["s5"]  # omitted --seed keeps the config's 5
    assert text["s0"] != text["s5"]  # an explicit --seed 0 overrides it


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run(["scaling", "--l", 20, "--density", 0.6, "--n-grid", "100,200",
                "--sigma2", 0.5, "--trials", 4, "--perms", 8,
                "--seed", 1, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,method,k_mode,f1,recall,precision,k_err,trials"
    assert len(lines) == 5


def test_scaling_bad_grid(tmp_path, capsys):
    assert run(["scaling", "--n-grid", "110", "--trials", 2,
                "--out", tmp_path / "x.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:validation:")


def test_bench_bad_sigma2_token(tmp_path, capsys):
    assert run(["bench", "--n", 120, "--l", 12, "--k", 4, "--sigma2-grid", "0.5,x",
                "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err == "error:validation: --sigma2-grid: cannot parse 'x' as float\n"


def test_scaling_bad_n_token(tmp_path, capsys):
    assert run(["scaling", "--n-grid", "100,abc", "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err == "error:validation: --n-grid: cannot parse 'abc' as int\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--n", 300, "--l", 30, "--k", 6],
        ["detect", "--rect", 30, "--method", "random", "--k", 6],
        ["detect", "--rect", 30, "--estimate-k", "--kmax", 10],
        ["gapcurve", "--rect", 30, "--kmax", 10],
        ["bench", "--n", 120, "--l", 12, "--k", 4, "--trials", 2],
        ["scaling", "--l", 20, "--n-grid", 100, "--trials", 2],
    ],
    ids=["gen", "detect-random", "detect-estimate-k", "gapcurve", "bench", "scaling"],
)
def test_negative_seed_refused(args, noiseless, tmp_path, capsys):
    meas, _ = noiseless
    if args[0] in ("detect", "gapcurve"):
        args = [*args, "--in", meas]
    out = tmp_path / "out"
    assert run([*args, "--seed", -1, "--out", out]) == 1
    assert capsys.readouterr().err == "error:validation: seed must be >= 0, got -1\n"
    assert not list(tmp_path.glob("out*"))


_HUGE = 100_000_000_000
_TOO_LONG = f"measurement shorter than template (300 < {_HUGE})"
_TOO_MANY = f"a measurement of N={_HUGE} samples needs {8 * _HUGE} bytes, above the limit of "


@pytest.mark.parametrize(
    "args, message",
    [
        (["detect", "--rect", _HUGE, "--method", "greedy", "--k", 2], _TOO_LONG),
        (["gapcurve", "--rect", _HUGE, "--kmax", 3], _TOO_LONG),
        (["gen", "--n", _HUGE, "--l", 30, "--k", 6], _TOO_MANY),
        (["bench", "--n", _HUGE, "--l", 30, "--k", 6, "--trials", 1, "--sigma2-grid", 1],
         _TOO_MANY),
    ],
    ids=["detect-rect", "gapcurve-rect", "gen", "bench"],
)
def test_measurement_sized_arrays_refused_before_allocation(
    args, message, noiseless, tmp_path, capsys, monkeypatch
):
    # A 745 GiB template or noise row: one validation line, not a numpy
    # allocation error.
    monkeypatch.setattr("dpdetect.dp.TABLE_BYTES_LIMIT", 1 << 30)
    meas, _ = noiseless
    if args[0] in ("detect", "gapcurve"):
        args = [*args, "--in", meas]
    assert run([*args, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:validation: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_bench_gap_mode_without_permutations_refused(tmp_path, capsys):
    # Every trial's count estimate would fail: refused before any trial runs.
    out = tmp_path / "x.csv"
    assert run(["bench", "--n", 120, "--l", 12, "--k", 4, "--k-mode", "gap",
                "--perms", 0, "--trials", 2, "--sigma2-grid", 1, "--out", out]) == 1
    assert capsys.readouterr().err == "error:validation: perms must be >= 1\n"
    assert not out.exists()


def test_bench_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_samples": 120,')
    assert run(["bench", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:validation: {cfg}: not valid JSON")
    assert err.count("\n") == 1


def test_bench_config_non_integer_seed_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_samples": 120, "length": 12, "k": 2, "sigma2_grid": [1.0], "seed": 1.5}')
    assert run(["bench", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
    assert capsys.readouterr().err == "error:validation: seed must be an integer, got 1.5\n"


def test_cli_import_loads_neither_numpy_random_nor_fft():
    # Every CLI call and the benchmark's setup time pay the import; the
    # generator and the FFT load on first use instead.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dpdetect.cli; "
        "print(sorted(m for m in ('numpy.random', 'numpy.fft') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
