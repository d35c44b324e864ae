"""Benchmark of the hamjepa command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: the package is imported from
``src/``.  Each repeat of a workload is one fresh process that runs the
workload's ``hamjepa`` commands through ``hamjepa.cli.main`` with the argv
a user would type.  Repeats run one at a time, closed loop, with BLAS and
OpenMP pinned to one thread.  Repeats continue until the next one would
end after ``--seconds``; training workloads make at least two, so that
their output digests can be compared.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the run's samples.  With ``--trace 1`` the run makes
one untraced and one traced repeat and reports the per-layer metrics of
the traced one (see layertrace.py), plus the tracing overhead.  Lines
before the last one hold the full report: machine facts, every sample,
sample counts, output digests and failed operations.

Exit code 0 means a result was printed, whether or not every operation
passed; see its ``correct`` and ``failed`` fields.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 5  # set-up only processes per untraced run, besides the repeats
RUN_LIMIT_S = 170  # every child is killed past this point of the run
POLL_S = 0.05

BATCH_SIZE = 256  # data.batch_size default; drop_last is on by default
# Quality guard on q.knn["20"] of diagnose, so that a speed-up cannot break
# learning.  Chance is 0.1 with 10 classes; default trainings reach 0.79 to
# 0.97 depending on the seed, so 0.5 catches a broken encoder, not a seed.
KNN_Q20_FLOOR = 0.5
READOUTS = ("q", "p", "qp")
KNN_KS = ("1", "5", "10", "20", "50")
READOUT_FIELDS = (
    "knn", "linear_probe", "effective_rank", "participation_ratio", "eigmax_frac",
    "cos_mean", "cos_std", "norm_mean", "norm_std",
)

# Every registered check except anti_collapse_training, headline_gap and
# determinism, which re-run the default trainings the other workloads time.
CERTIFY_CHECKS = (
    "symplecticity", "reversibility", "reciprocal_singular_values", "convergence_order",
    "shadow_energy", "gradients", "minimax", "price_of_isotropy", "no_universal_target",
    "coupling_nonidentifiability", "gibbs_lift", "joint_spectral_bounds", "maxent_gap",
    "whiten_and_roundtrip", "symplectic_factorization", "anti_collapse_witnesses",
    "sigreg_calibration", "expressivity", "slice_demo",
)

WORKLOADS = ("hjepa_pipeline", "baseline_train", "certify")


@dataclasses.dataclass
class Workload:
    name: str
    config: dict | None  # written to ../config.json, relative to each repeat
    commands: list  # argv lists for hamjepa.cli.main, run in a repeat's directory
    artifacts: dict  # command -> files to hash (globs, relative to the repeat)
    steps: int  # training steps the train command must report
    checks: tuple  # checks the verify command must report
    expect_calls: list  # (command, span, exact call count) for the traced run
    min_repeats: int


def define(name: str, seed: int, n_samples: int = 4096, epochs: int = 30, checks=CERTIFY_CHECKS) -> Workload:
    """The workload ``name`` at seed ``seed``.  The defaults are the
    benchmark's sizes; the self-test passes smaller ones."""
    size = {}
    if n_samples != 4096:
        size["data"] = {"n_samples": n_samples}
    if epochs != 30:
        size["train"] = {"epochs": epochs}
    steps = n_samples // BATCH_SIZE * epochs
    train = ["train", "--config", "../config.json", "--out", "run"]
    train_outputs = ["run/metrics.jsonl", "run/checkpoint_final/*.bin"]
    if name == "hjepa_pipeline":
        return Workload(
            name,
            {"seed": seed, "hjepa": {}, **size},
            [train, ["diagnose", "--checkpoint", "run/checkpoint_final",
                     "--config", "../config.json", "--out", "diag"]],
            {"train": train_outputs, "diagnose": ["diag/summary.json"]},
            steps,
            (),
            # two projected log-det floors per step, plus the stiffness
            # eigendecomposition in generate_views; 3 readouts x 5 values of k
            [("train", "numlin.sym_eig", 2 * steps + 1), ("diagnose", "diagnostics.knn_accuracy", 15)],
            2,
        )
    if name == "baseline_train":
        return Workload(
            name,
            {"seed": seed, **size},
            [train],
            {"train": train_outputs},
            steps,
            (),
            [("train", "objectives.sigreg_statistic", 2 * steps)],  # one per view and step
            2,
        )
    if name == "certify":
        return Workload(
            name,
            None,
            [["verify", "--filter", ",".join(checks), "--seed", str(seed), "--out", "report"]],
            {"verify": ["report/verify_report.json"]},
            0,
            tuple(checks),
            [],
            1,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --- running one process --------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HAMJEPA_SEED", "PYTHONPATH")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: Workload, cwd: Path, trace: bool, setup_only: bool, deadline: float) -> dict:
    """Run one child process to completion and return its record."""
    cwd.mkdir(parents=True)
    spec = {
        "commands": workload.commands,
        "config": "../config.json" if workload.config is not None else None,
        "trace": trace,
        "setup_only": setup_only,
    }
    (cwd / "spec.json").write_text(json.dumps(spec))
    result_path = cwd / "result.json"
    with open(cwd / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "spec.json", "result.json"],
            cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            status, usage = wait_rusage(proc, deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    record = {
        "exit": status,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "minor_faults": usage.ru_minflt,
        "result": None,
    }
    if status == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        record["result"] = result
        record["setup_s"] = result["ready"] - start
    else:
        record["log_tail"] = (cwd / "child.log").read_text()[-2000:]
    return record


def wait_rusage(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` (killing it past ``deadline``); return its exit
    status and resource usage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# --- correctness ------------------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_outputs(workload: Workload, cwd: Path) -> dict:
    """command -> {relative path: sha256} of the command's output files."""
    out = {}
    for command, patterns in workload.artifacts.items():
        files = {}
        for pattern in patterns:
            for path in sorted(cwd.glob(pattern)):
                files[str(path.relative_to(cwd))] = sha256(path)
        out[command] = files
    return out


def summary_problems(path: Path) -> list:
    if not path.exists():
        return ["summary.json missing"]
    summary = json.loads(path.read_text())
    problems = [f"missing {k}" for k in ("seed", "n_train", "n_test") if k not in summary]
    for readout in READOUTS:
        block = summary.get(readout, {})
        problems += [f"missing {readout}.{f}" for f in READOUT_FIELDS if f not in block]
        problems += [f"missing {readout}.knn.{k}" for k in KNN_KS if k not in block.get("knn", {})]
    if not problems and summary["q"]["knn"]["20"] < KNN_Q20_FLOOR:
        problems.append(f"q.knn.20 = {summary['q']['knn']['20']} below {KNN_Q20_FLOOR}")
    return problems


def check_repeat(workload: Workload, record: dict, cwd: Path, reference: dict | None) -> tuple:
    """Judge every operation of one repeat.

    Returns (ops, digests): ops is a list of (operation, problem or None);
    digests maps each command to the sha256 of its output files.
    """
    commands = record["result"]["commands"] if record["result"] else []
    if not commands:
        why = f"process exited {record['exit']}: {record.get('log_tail', '')[-300:]}"
        ops = [(argv[0], why) for argv in workload.commands]
        return ops + [(f"check {name}", why) for name in workload.checks], {}

    digests = digest_outputs(workload, cwd)
    ops = []
    for cmd in commands:
        name, problems = cmd["argv"][0], []
        if cmd["exit"] != 0:
            problems.append(f"exit code {cmd['exit']}")
        if name == "train":
            match = re.search(r"steps=(\d+)", cmd["stdout"])
            if not match or int(match.group(1)) != workload.steps:
                problems.append(f"expected steps={workload.steps}")
        if name == "diagnose":
            problems += summary_problems(cwd / "diag" / "summary.json")
        if name == "verify":
            status = {check: s for s, check in re.findall(r"^(PASS|FAIL) (\w+):", cmd["stdout"], re.M)}
            for check in workload.checks:
                state = status.get(check, "missing")
                ops.append((f"check {check}", None if state == "PASS" else state))
            if set(status) != set(workload.checks):
                problems.append("reported checks differ from the filter")
        expected = workload.artifacts.get(name, [])
        files = digests.get(name, {})
        if expected and not files:
            problems.append("no output files")
        if reference is not None and reference.get(name) != files:
            problems.append("output digests differ from the first repeat")
        ops.append((name, "; ".join(problems) or None))
    return ops, digests


def knn_q20(cwd: Path):
    path = cwd / "diag" / "summary.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("q", {}).get("knn", {}).get("20")


# --- metrics ----------------------------------------------------------------------


def command_wall(record: dict, name: str | None = None) -> float:
    return sum(c["wall_s"] for c in record["result"]["commands"] if name in (None, c["argv"][0]))


def end_to_end(setup: list, repeats: list) -> tuple:
    """Medians over the samples, and the sample counts behind them."""
    samples = {
        "setup_s": setup,
        "wall_s": [command_wall(r) for r in repeats],
        "cpu_s": [r["user_s"] + r["sys_s"] for r in repeats],
        "peak_rss_mb": [r["maxrss_mb"] for r in repeats],
    }
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    return metrics, samples


def command_times(repeats: list, steps: int) -> dict:
    """Per-command medians of the untraced repeats, for the report."""
    out = {}
    for name in ("train", "diagnose", "verify"):
        walls = [command_wall(r, name) for r in repeats if any(c["argv"][0] == name for c in r["result"]["commands"])]
        if walls:
            out[f"{name}_s"] = {"median": statistics.median(walls), "samples": len(walls)}
    if steps and "train_s" in out:
        out["train_ms_per_step"] = {"median": 1000 * out["train_s"]["median"] / steps, "samples": out["train_s"]["samples"]}
    return out


PER_STEP = (
    ("trainer.hamjepa_train_step", "self"),
    ("trainer.lejepa_train_step", "self"),
    ("trainer.encoder_forward", "total"),
    ("trainer.encoder_backward", "total"),
    ("objectives.prediction_loss", "self"),
    ("hamflow.rollout", "total"),
    ("hamflow.RolloutTape.backward", "total"),
    ("objectives.projected_logdet_floor", "self"),
    ("numlin.sym_eig", "total"),
    ("numlin.cholesky_slogdet", "total"),
    ("objectives.energy_budget", "total"),
    ("objectives.variance_floor", "total"),
    ("objectives.mean_penalty", "total"),
    ("objectives.sigreg_statistic", "total"),
    ("objectives.lejepa_prediction_loss", "total"),
)
TOTAL_MS = (
    "trainer.load_encoder", "hamflow.leapfrog_step", "numlin.sym_eig",
    "diagnostics.knn_accuracy", "diagnostics.spectrum_report", "diagnostics.linear_probe",
    "diagnostics.cosine_norm_stats", "objectives.sigreg_statistic",
    "geomtheory.sample_feasible_covariance", "geomtheory.sampled_worst_case_variance",
    "objectives.prediction_loss",
)
CALLS = (
    "hamflow.leapfrog_step", "numlin.sym_eig", "diagnostics.knn_accuracy",
    "objectives.sigreg_statistic", "geomtheory.sample_feasible_covariance",
)


def span_totals(report: dict, name: str, command: str | None = None) -> tuple:
    """(calls, total_s, self_s) of span ``name``, in one command or all."""
    calls, total, own = 0, 0.0, 0.0
    for cmd, spans in report["spans"].items():
        if command in (None, cmd) and name in spans:
            c, t, s = spans[name]
            calls, total, own = calls + c, total + t, own + s
    return calls, total, own


def counter(report: dict, name: str) -> int:
    return sum(counts.get(name, 0) for counts in report["counts"].values())


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile_ms(durations: list, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000 * durations[0]
    return 1000 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def per_layer(report: dict, plain: dict, traced: dict, knn_q20: float | None) -> dict:
    """Per-layer metrics of a traced repeat.  A layer the workload does not
    reach reports 0.  ``*_per_step`` metrics cover the train command only,
    the others the whole repeat."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    steps = sum(span_totals(report, s, "train")[0] for s in ("trainer.hamjepa_train_step", "trainer.lejepa_train_step"))
    for step_span in ("trainer.hamjepa_train_step", "trainer.lejepa_train_step"):
        durations = report["step_s"].get("train", {}).get(step_span, [])
        put(f"{step_span}.ms_p50", percentile_ms(durations, 50), "ms")
        put(f"{step_span}.ms_p97", percentile_ms(durations, 97), "ms")
    for name, kind in PER_STEP:
        _, total, own = span_totals(report, name, "train")
        prefix = "self_" if kind == "self" else ""
        put(f"{name}.{prefix}ms_per_step", ratio(1000 * (own if kind == "self" else total), steps), "ms")
    put("trainer.train.self_ms", 1000 * span_totals(report, "trainer.train")[2], "ms")
    for name in TOTAL_MS:
        put(f"{name}.ms", 1000 * span_totals(report, name)[1], "ms")
    for name in CALLS:
        put(f"{name}.calls", span_totals(report, name)[0], "count")

    put("objectives.projected_logdet_floor.eig_used_ratio",
        ratio(counter(report, "eig_used"), counter(report, "eig_computed")), "ratio.computed")
    put("diagnostics.knn_accuracy.sorted_per_used",
        ratio(counter(report, "knn_sorted"), counter(report, "knn_used")), "ratio.computed")
    put("objectives.sigreg_statistic.computed_mb_per_call",
        ratio(counter(report, "sigreg_nkt_bytes") / 1e6, span_totals(report, "objectives.sigreg_statistic")[0]),
        "MB.computed")

    for check in CERTIFY_CHECKS:
        put(f"certify.{check}.s", report["check_s"].get(check, 0.0), "s")

    put("process.sys_cpu_s", plain["sys_s"], "s")
    put("process.minor_faults", plain["minor_faults"], "count")
    put("cli.train.ms_per_step", ratio(1000 * command_wall(plain, "train"), steps), "ms")
    put("cli.diagnose.s", command_wall(plain, "diagnose"), "s")
    put("cli.verify.s", command_wall(plain, "verify"), "s")
    put("trace.overhead_s", command_wall(traced) - command_wall(plain), "s")
    put("diagnostics.knn_q20", knn_q20 or 0.0, "accuracy")
    return out


# --- one run ----------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


def run(workload: Workload, seconds: float, trace: bool) -> tuple:
    """Run one benchmark run of ``workload``; return (result, report)."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if workload.config is not None:
            (run_dir / "config.json").write_text(json.dumps(workload.config))
        setup = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe = spawn(workload, run_dir / f"setup{i}", False, True, deadline)
                if probe["result"] is not None:
                    setup.append(probe["setup_s"])

        ops, repeats, digests, quality = [], [], [], []

        def repeat(traced: bool):
            index = len(repeats)
            cwd = run_dir / f"repeat{index}"
            record = spawn(workload, cwd, traced, False, deadline)
            rep_ops, rep_digests = check_repeat(workload, record, cwd, next(filter(None, digests), None))
            ops.extend((f"repeat{index} {op}", problem) for op, problem in rep_ops)
            repeats.append(record)
            digests.append(rep_digests)
            quality.append(knn_q20(cwd))
            shutil.rmtree(cwd)

        if trace:
            repeat(False)
            repeat(True)
        else:
            loop_start = time.monotonic()
            while True:
                repeat(False)
                n, elapsed = len(repeats), time.monotonic() - loop_start
                if n >= workload.min_repeats and elapsed * (n + 1) / n > seconds or time.monotonic() > deadline:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    done = [r for r in repeats if r["result"] is not None]
    report = {
        "workload": workload.name,
        "config": workload.config,
        "commands": workload.commands,
        "machine": machine_facts(),
        "repeats": len(repeats),
        "digests": digests,
        "knn_q20": quality,
    }
    if trace:
        plain, traced = repeats
        if plain["result"] is None or traced["result"] is None:
            return None, report
        layer_report = traced["result"]["trace"]
        for command, span, count in workload.expect_calls:
            calls = span_totals(layer_report, span, command)[0]
            ops.append((f"coverage {command} {span}.calls", None if calls == count else f"{calls} != {count}"))
        metrics = per_layer(layer_report, plain, traced, quality[0])
        report["layer_report"] = layer_report
        report["tracing_overhead_s"] = metrics["trace.overhead_s"]["value"]
    else:
        if not done or not setup:
            return None, report
        metrics, samples = end_to_end(setup + [r["setup_s"] for r in done], done)
        report["samples"] = samples
        report["sample_counts"] = {k: len(v) for k, v in samples.items()}
        report["command_times"] = command_times(done, workload.steps)
    report["failed_ops"] = [{"op": op, "problem": problem} for op, problem in ops if problem]
    failed = len(report["failed_ops"])
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hamjepa" / "cli.py").is_file():
        print(f"no hamjepa sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result, report = run(define(args.workload, args.seed), args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1, sort_keys=True))
    if result is None:
        print("no repeat completed; see the report above", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
