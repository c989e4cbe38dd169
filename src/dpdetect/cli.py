"""Command-line interface.

Subcommands: ``gen`` (synthesize a measurement), ``detect`` (run one
detector, optionally estimating the occurrence count), ``gapcurve`` (dump
the gap-statistic curve as CSV), ``whiten`` (flatten colored noise),
``bench`` (noise sweep), and ``scaling`` (fixed-density length sweep).

On failure the process exits nonzero after printing a single
``error:<category>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import io as io_mod
from .convex import ConvexConfig, convex_detect_full
from .dp import dp_detect
from .gap import GapConfig, estimate_k, gap_curve
from .greedy import greedy_detect, random_detect
from .model import DetectError, ValidationError, check_fits, check_seed
from .synth import SynthConfig, rect_template, synthesize
from .whiten import estimate_psd, whiten

_SEP_CHOICES = {"arbitrary": "arbitrary", "well": "well_separated"}


def _template_from_args(args, n_samples: int):
    if getattr(args, "rect", None) is not None:
        check_fits(n_samples, args.rect)  # before the template is allocated
        return rect_template(args.rect)
    if getattr(args, "template", None):
        return io_mod.read_template(args.template)
    raise ValidationError("provide a template via --rect L or --template FILE")


def _numbers(text: str, flag: str, kind) -> tuple:
    """The comma-separated values of ``flag``, each parsed by ``kind``."""
    values = []
    for token in text.split(","):
        try:
            values.append(kind(token))
        except ValueError:
            message = f"{flag}: cannot parse {token!r} as {kind.__name__}"
            raise ValidationError(message) from None
    return tuple(values)


def _write_text(text, out):
    """Write to the ``--out`` path, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    sep = _SEP_CHOICES[args.sep]
    cfg = SynthConfig(
        n_samples=args.n,
        length=args.length,
        k=args.k,
        sigma2=args.sigma2,
        separation=sep,
        seed=args.seed,
    )
    y, truth = synthesize(cfg, rect_template(args.length))
    prefix = args.out or "measurement"
    meas_path = f"{prefix}.txt"
    truth_path = f"{prefix}.json"
    io_mod.write_measurement(y, meas_path)
    io_mod.write_ground_truth(
        truth, cfg.n_samples, cfg.sigma2, sep == "well_separated", truth_path
    )
    print(f"wrote {meas_path} and {truth_path}")
    return 0


def cmd_detect(args) -> int:
    y = io_mod.read_measurement(args.infile)
    template = _template_from_args(args, y.length)
    extra = None
    if args.estimate_k:
        if args.method not in ("dp", "greedy"):
            raise ValidationError("--estimate-k supports methods dp and greedy")
        cfg = GapConfig(k_max=args.kmax, perms=args.perms, seed=args.seed)
        k_hat, result = estimate_k(y, template, cfg, detector=args.method)
        extra = {"k_estimate": k_hat}
    elif args.method == "dp":
        result = dp_detect(y, template, _require_k(args))
    elif args.method == "greedy":
        result = greedy_detect(y, template, _require_k(args))
    elif args.method == "random":
        check_seed(args.seed)
        rng = np.random.default_rng(args.seed)
        result = random_detect(y, template, _require_k(args), rng)
    else:
        cfg = ConvexConfig(sigma2=args.sigma2, delta_override=args.delta)
        result, track = convex_detect_full(y, template, _require_k(args), cfg)
        extra = {"residual_sq": track.residual_sq, "lambda": track.lambda_star}
    _write_text(json.dumps(io_mod.result_to_dict(result, extra), indent=2) + "\n", args.out)
    return 0


def _require_k(args) -> int:
    if args.k is None:
        raise ValidationError("--k is required unless --estimate-k is given")
    return args.k


def cmd_gapcurve(args) -> int:
    y = io_mod.read_measurement(args.infile)
    template = _template_from_args(args, y.length)
    cfg = GapConfig(k_max=args.kmax, perms=args.perms, seed=args.seed)
    curve = gap_curve(y, template, cfg, detector=args.detector)
    lines = ["K,actual,null_mean,gap"]
    for i, k in enumerate(curve.k):
        lines.append(
            f"{k},{curve.actual[i]:.6g},{curve.null_mean[i]:.6g},{curve.gap[i]:.6g}"
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_whiten(args) -> int:
    y = io_mod.read_measurement(args.infile)
    try:
        a, b = args.noise_region.split(":")
        region = (int(a), int(b))
    except ValueError as exc:
        raise ValidationError(
            f"--noise-region must look like A:B, got {args.noise_region!r}"
        ) from exc
    psd = estimate_psd(y, region, window_len=args.window)
    mode = "inverse_sqrt" if args.mode == "sqrt" else "inverse"
    out_path = args.out or "whitened.txt"
    io_mod.write_measurement(whiten(y, psd, mode=mode), out_path)
    print(f"wrote {out_path}")
    return 0


def _bench_config(args) -> bench_mod.BenchConfig:
    if args.config:
        cfg = bench_mod.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return cfg
    required = {"--n": args.n, "--l": args.length, "--k": args.k}
    missing = [name for name, v in required.items() if v is None]
    if missing:
        raise ValidationError(f"missing {' '.join(missing)} (or use --config)")
    return bench_mod.BenchConfig(
        n_samples=args.n,
        length=args.length,
        k=args.k,
        sigma2_grid=_numbers(args.sigma2_grid, "--sigma2-grid", float),
        trials=args.trials,
        methods=tuple(args.methods.split(",")),
        separation=_SEP_CHOICES[args.sep],
        length_hat=args.l_hat,
        k_mode=args.k_mode,
        k_max=args.kmax,
        perms=args.perms,
        seed=0 if args.seed is None else args.seed,
    )


def _write_sweep(records, args, default_out, x) -> int:
    out_path = args.out or default_out
    bench_mod.emit_csv(records, out_path, x=x)
    print(f"wrote {out_path}")
    if args.svg:
        bench_mod.emit_svg(records, args.svg, x=x)
        print(f"wrote {args.svg}")
    return 0


def cmd_bench(args) -> int:
    records = bench_mod.run_sweep(_bench_config(args))
    return _write_sweep(records, args, "bench.csv", "sigma2")


def cmd_scaling(args) -> int:
    n_grid = _numbers(args.n_grid, "--n-grid", int)
    records = bench_mod.run_length_scaling(
        n_grid,
        length=args.length,
        density=args.density,
        sigma2=args.sigma2,
        trials=args.trials,
        perms=args.perms,
        seed=args.seed,
    )
    return _write_sweep(records, args, "scaling.csv", "n_samples")


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output path (or prefix for gen)")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")

    parser = argparse.ArgumentParser(
        prog="dpdetect",
        description="Detect non-overlapping template occurrences in 1-D data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="synthesize a measurement")
    p.add_argument("--n", type=int, required=True, help="measurement length")
    p.add_argument("--l", dest="length", type=int, required=True, help="template length")
    p.add_argument("--k", type=int, required=True, help="number of occurrences")
    p.add_argument("--sigma2", type=float, default=0.0, help="noise variance")
    p.add_argument("--sep", choices=sorted(_SEP_CHOICES), default="arbitrary")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect", parents=[common], help="run one detector")
    p.add_argument("--in", dest="infile", required=True, help="measurement file")
    p.add_argument("--template", help="template file (one number per line)")
    p.add_argument("--rect", type=int, help="use an all-ones template of this length")
    p.add_argument(
        "--method", choices=("dp", "greedy", "convex", "random"), default="dp"
    )
    p.add_argument("--k", type=int, help="occurrence count (when known)")
    p.add_argument("--estimate-k", action="store_true", help="estimate the count")
    p.add_argument("--kmax", type=int, default=10, help="candidate count ceiling")
    p.add_argument("--perms", type=int, default=50, help="null permutations")
    p.add_argument("--sigma2", type=float, default=1.0, help="noise variance (convex)")
    p.add_argument("--delta", type=float, help="residual budget override (convex)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("gapcurve", parents=[common], help="gap statistic curve CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--template")
    p.add_argument("--rect", type=int)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--perms", type=int, default=50)
    p.add_argument("--detector", choices=("dp", "greedy"), default="dp")
    p.set_defaults(func=cmd_gapcurve)

    p = sub.add_parser("whiten", parents=[common], help="flatten colored noise")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--noise-region", required=True, help="signal-free index range A:B"
    )
    p.add_argument("--window", type=int, default=256, help="periodogram window")
    p.add_argument(
        "--mode",
        choices=("sqrt", "full"),
        default="sqrt",
        help="inverse-sqrt (default) or full inverse spectrum",
    )
    p.set_defaults(func=cmd_whiten)

    p = sub.add_parser("bench", parents=[output], help="noise sweep")
    p.add_argument("--config", help="JSON config mirroring BenchConfig")
    # No default, so an explicit --seed (0 included) overrides the config's.
    p.add_argument("--seed", type=int, help="base RNG seed (default: config's, or 0)")
    p.add_argument("--n", type=int)
    p.add_argument("--l", dest="length", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sigma2-grid", default="0.5,1,2,3")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--methods", default="dp,greedy")
    p.add_argument("--sep", choices=sorted(_SEP_CHOICES), default="arbitrary")
    p.add_argument("--l-hat", dest="l_hat", type=int)
    p.add_argument("--k-mode", choices=("known", "gap"), default="known")
    p.add_argument("--kmax", type=int)
    p.add_argument("--perms", type=int, default=50)
    p.add_argument("--svg", help="also render an SVG chart here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scaling", parents=[common], help="length sweep at fixed density")
    p.add_argument("--l", dest="length", type=int, default=20)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--n-grid", required=True, help="comma-separated lengths")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--perms", type=int, default=50)
    p.add_argument("--svg", help="also render an SVG chart here")
    p.set_defaults(func=cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DetectError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
