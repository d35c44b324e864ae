"""Acceptance gate: every exit criterion at its stated tolerance.

Each test runs the corresponding registered certification check (the same
functions the ``verify`` command dispatches) and prints one pass/fail line
with the measured residuals.  Tolerances are pinned in
hamjepa.certify.TOLERANCES; runtime budgets are asserted where stated.
"""

import json
import os
import time

import pytest

from hamjepa import certify
from hamjepa.cli import main

SEED = 42


def run_check(name, budget_s=None):
    start = time.time()
    passed, details = certify.CHECKS[name](SEED)
    elapsed = time.time() - start
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s): {details}")
    assert passed, f"{name} failed: {details}"
    if budget_s is not None:
        assert elapsed <= budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    return details


def test_criterion_01_symplecticity_certificate():
    run_check("symplecticity", budget_s=30)


def test_criterion_02_exact_reversibility():
    run_check("reversibility", budget_s=5)


def test_criterion_03_reciprocal_singular_values():
    run_check("reciprocal_singular_values")


def test_criterion_04_order_two_convergence():
    run_check("convergence_order")


def test_criterion_05_shadow_energy_boundedness():
    run_check("shadow_energy")


def test_criterion_06_minimax_covariance():
    run_check("minimax", budget_s=60)


def test_criterion_07_price_of_isotropy():
    run_check("price_of_isotropy")


def test_criterion_08_no_universal_target():
    run_check("no_universal_target")


def test_criterion_09_coupling_nonidentifiability():
    run_check("coupling_nonidentifiability")


def test_criterion_10_gibbs_lift():
    run_check("gibbs_lift")


def test_criterion_11_joint_spectral_bounds():
    run_check("joint_spectral_bounds")


def test_criterion_12_gradient_correctness():
    run_check("gradients")


def test_criterion_13_anti_collapse_in_training():
    run_check("anti_collapse_training", budget_s=180)


def test_criterion_14_scaled_headline_analogue():
    details = run_check("headline_gap", budget_s=600)
    # calibrated once at seed 42 and frozen: the gap clears the 5-point
    # threshold with a wide margin (~17 points)
    assert details["gap_points"] >= 5.0


def test_criterion_15_slice_demo(tmp_path):
    start = time.time()
    run_check("slice_demo")
    code = main(
        ["slicedemo", "--dt", "0.3", "--horizon", "3", "--samples", "4000",
         "--out", str(tmp_path)]
    )
    assert code == 0
    csv_path = tmp_path / "slice_profile.csv"
    assert csv_path.is_file()
    assert csv_path.read_text().splitlines()[0] == "theta,g_euler,g_leapfrog"
    assert time.time() - start <= 30


def test_criterion_16_determinism(tmp_path):
    run_check("determinism")

    # command-level reruns: identical bytes for train, verify, slicedemo
    cfg = {
        "seed": SEED,
        "hjepa": {},
        "data": {"n_samples": 256, "batch_size": 64},
        "train": {"epochs": 2, "warmup_epochs": 1, "ckpt_dir": "unused"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for sub in ("a", "b"):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / sub)]) == 0
    for rel in ("metrics.jsonl", "checkpoint_final/encoder.bin", "checkpoint_final/potential.bin"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    for sub in ("va", "vb"):
        assert main(
            ["verify", "--filter", "convergence_order", "--out", str(tmp_path / sub)]
        ) == 0
    assert (tmp_path / "va" / "verify_report.json").read_bytes() == (
        tmp_path / "vb" / "verify_report.json"
    ).read_bytes()

    for sub in ("sa", "sb"):
        assert main(
            ["slicedemo", "--dt", "0.3", "--horizon", "2", "--samples", "500",
             "--out", str(tmp_path / sub)]
        ) == 0
    assert (tmp_path / "sa" / "slice_profile.csv").read_bytes() == (
        tmp_path / "sb" / "slice_profile.csv"
    ).read_bytes()


def test_expressivity_realization():
    # trainer-level property: the trained separable predictor sits within an
    # order of magnitude of the pure-integrator error on noise-free
    # quadratic transport
    run_check("expressivity")


@pytest.mark.parametrize(
    "name",
    [
        "maxent_gap",
        "whiten_and_roundtrip",
        "symplectic_factorization",
        "anti_collapse_witnesses",
        "sigreg_calibration",
    ],
)
def test_supporting_check_passes(name):
    # the registered checks without a numbered criterion of their own
    run_check(name)


def test_verify_aggregates_the_full_registry():
    # every acceptance-facing check is reachable through the CLI registry
    for name in (
        "symplecticity", "reversibility", "reciprocal_singular_values",
        "convergence_order", "shadow_energy", "minimax", "price_of_isotropy",
        "no_universal_target", "coupling_nonidentifiability", "gibbs_lift",
        "joint_spectral_bounds", "gradients", "anti_collapse_training",
        "headline_gap", "slice_demo", "determinism", "expressivity",
        "maxent_gap", "whiten_and_roundtrip", "symplectic_factorization",
        "anti_collapse_witnesses", "sigreg_calibration",
    ):
        assert name in certify.CHECKS
