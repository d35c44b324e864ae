"""Command-line entry point.

Commands: ``verify`` runs the registered certification checks, ``train``
runs a configured training job, ``diagnose`` evaluates a frozen checkpoint,
and ``slicedemo`` reproduces the directional-discrepancy comparison of
coarse Euler and leapfrog transport.

Every command is a pure function of (config bytes, seed) to (output bytes,
exit code).  Exit codes: 0 success, 1 check failure, 2 config error,
3 runtime abort.  ``main`` alone turns an exception into an exit code: a
ConfigError exits 2 and one of ``ABORTS`` exits 3, each with one line on
stderr.  The HAMJEPA_SEED environment variable overrides the seed.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import diagnostics, trainer
from .trainer import ConfigError, TrainingAbort

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3

# the exceptions that end a command as a runtime abort; any other is a bug
# and keeps its traceback.  ConfigError is a ValueError: main catches it first.
# MemoryError covers numpy's failed allocations, e.g. of a sample count that
# does not fit in memory.
ABORTS = (TrainingAbort, FloatingPointError, OSError, ValueError, MemoryError)


def _env_seed(default: int) -> int:
    """The seed: HAMJEPA_SEED if set, else ``default`` (the --seed flag or
    the config's seed); a negative value is a config error."""
    raw = os.environ.get("HAMJEPA_SEED")
    if raw is None:
        seed, source = default, "--seed"
    else:
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"HAMJEPA_SEED must be an integer, got {raw!r}") from exc
        source = "HAMJEPA_SEED"
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def cmd_verify(args) -> int:
    # imported here, as they would add ~5 ms and ~20 ms to every command's start
    from concurrent.futures import BrokenExecutor

    from . import certify

    seed = _env_seed(args.seed)
    names = args.filter.split(",") if args.filter is not None else None
    jobs = certify.dispatch_plan(names)
    if args.out:  # before the checks run, so that an --out that is a file fails at once
        os.makedirs(args.out, exist_ok=True)
    try:
        results = certify.run_checks(names, seed=seed)
    except BrokenExecutor as exc:  # a worker process died
        raise TrainingAbort(str(exc)) from exc
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in r.details.items())
        print(f"{status} {r.name}: {detail}")
        print(f"  [{r.name} took {r.seconds:.1f}s]", file=sys.stderr)
        all_passed = all_passed and r.passed
    report = _plain(
        {
            "seed": seed,
            "filter": names,
            "results": [
                {"name": r.name, "passed": r.passed, "details": r.details}
                for r in results
            ],
            "all_passed": all_passed,
        }
    )
    if args.out:
        with open(os.path.join(args.out, "verify_report.json"), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        # wall-clock data goes beside the report, so the report stays byte identical
        timings = {
            "workers": certify.worker_count(len(jobs)),  # as run_checks counts them
            "jobs": [list(job) for job in jobs],
            "seconds": {r.name: r.seconds for r in results},
        }
        with open(os.path.join(args.out, "verify_timings.json"), "w") as fh:
            json.dump(timings, fh, indent=1)
            fh.write("\n")
    if not all_passed:
        failed = [r.name for r in results if not r.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _plain(obj):
    """JSON-ready copy: numpy scalars and arrays become Python values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "HAMJEPA_SEED" in os.environ:
        raw["seed"] = _env_seed(raw.get("seed", 42))
    return raw


def cmd_train(args) -> int:
    result = trainer.train(_load_config(args.config), out_dir=args.out)
    print(f"mode={result['mode']} steps={result['steps']} out={result['out_dir']}")
    if result["final"] is not None:
        print(f"final total={result['final']['total']:.6g}")
    return EXIT_OK


KNN_SWEEP = (1, 5, 10, 20, 50)


def cmd_diagnose(args) -> int:
    cfg = trainer.validate_config(_load_config(args.config))
    enc = trainer.load_encoder(args.checkpoint)
    views_a, labels, cut = trainer.run_first_view(cfg)
    if enc.weights[0].shape[1] != views_a.shape[1]:
        raise TrainingAbort(
            f"checkpoint expects inputs of dim {enc.weights[0].shape[1]},"
            f" config generates dim {views_a.shape[1]}"
        )
    os.makedirs(args.out, exist_ok=True)
    readouts = trainer.encode_readouts(enc, views_a)
    del views_a  # the readouts need only the features
    pair_rng = np.random.default_rng([cfg["seed"], 1])
    summary = {"seed": cfg["seed"], "n_train": int(cut), "n_test": int(len(labels) - cut)}
    for name, feats in readouts.items():
        sweep = [
            (k, diagnostics.knn_accuracy(feats[:cut], labels[:cut], feats[cut:], labels[cut:], k))
            for k in KNN_SWEEP
            if k <= cut
        ]
        diagnostics.write_knn_sweep_csv(sweep, os.path.join(args.out, f"knn_{name}.csv"))
        report = diagnostics.spectrum_report(feats)
        diagnostics.write_spectrum_csv(report, os.path.join(args.out, f"spectrum_{name}.csv"))
        cosine = diagnostics.cosine_norm_stats(feats, 10_000, pair_rng)
        probe = diagnostics.linear_probe(feats[:cut], labels[:cut], feats[cut:], labels[cut:])
        summary[name] = {
            "knn": {str(k): acc for k, acc in sweep},
            "linear_probe": probe,
            "effective_rank": report.effective_rank,
            "participation_ratio": report.participation_ratio,
            "eigmax_frac": report.eigmax_frac,
            "cos_mean": cosine.cos_mean,
            "cos_std": cosine.cos_std,
            "norm_mean": cosine.norm_mean,
            "norm_std": cosine.norm_std,
        }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(_plain(summary), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"diagnostics written to {args.out}")
    return EXIT_OK


def cmd_slicedemo(args) -> int:
    if not (0 < args.dt < math.inf and 0 < args.horizon < math.inf) or args.samples < 2:
        raise ConfigError("dt and horizon must be finite and positive, samples >= 2")
    # compared before rounding, so that an overflowing ratio is caught too
    if args.horizon / args.dt > diagnostics.SLICE_DEMO_MAX_STEPS + 0.5:
        raise ConfigError(
            f"horizon / dt must round to at most {diagnostics.SLICE_DEMO_MAX_STEPS} coarse steps"
        )
    seed = _env_seed(args.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught below
        profiles = diagnostics.harmonic_slice_demo(
            args.dt, args.horizon, args.samples, np.random.default_rng(seed)
        )
    if not all(np.all(np.isfinite(p.g_values)) for p in profiles.values()):
        raise FloatingPointError("non-finite discrepancy profile")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "slice_profile.csv")
    diagnostics.write_discrepancy_csv(
        {"euler": profiles["euler"], "leapfrog": profiles["leapfrog"]}, path
    )
    print(
        f"euler mean_g={profiles['euler'].mean_g:.6g} "
        f"leapfrog mean_g={profiles['leapfrog'].mean_g:.6g} -> {path}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamjepa",
        description="Phase-space predictive learning: certification, training, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the certification checks")
    p_verify.add_argument("--filter", default=None, help="comma-separated check names")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--out", default=None, help="directory for the JSON report")
    p_verify.set_defaults(func=cmd_verify, label="verify")

    p_train = sub.add_parser("train", help="train from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="override the checkpoint directory")
    p_train.set_defaults(func=cmd_train, label="training")

    p_diag = sub.add_parser("diagnose", help="frozen-feature diagnostics of a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose, label="diagnose")

    p_slice = sub.add_parser("slicedemo", help="directional discrepancy of coarse rollouts")
    p_slice.add_argument("--dt", type=float, required=True)
    p_slice.add_argument("--horizon", type=float, required=True)
    p_slice.add_argument("--samples", type=int, default=4000)
    p_slice.add_argument("--seed", type=int, default=42)
    p_slice.add_argument("--out", required=True)
    p_slice.set_defaults(func=cmd_slicedemo, label="slicedemo")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trainer.setup_process()  # before any command: it changes speed, never results
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ABORTS as exc:
        print(f"{args.label} aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
