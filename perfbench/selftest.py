"""Self-test of the benchmark at a tiny size; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload at one epoch on 1,024 samples (certify: the
slice_demo check only), untraced and traced, and checks that:

- every operation passes and the result line parses, with exactly the
  metric names and units that BENCHMARK.json lists;
- repeats of a training workload give identical, non-empty digests, and a
  digest that differs between repeats fails the run;
- the traced run checks its exact call counts, and a wrong count fails it;
- outside a source checkout the benchmark exits non-zero without a result.
"""

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def tiny(name: str) -> run.Workload:
    return run.define(name, 7, n_samples=1024, epochs=1, checks=("slice_demo",))


def expect(condition: bool, message: str, failures: list):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names match", failures)

    for name in run.WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result, report = run.run(tiny(name), 0, trace)
            expect(result is not None and result["failed"] == 0 and result["correct"],
                   f"{label}: all operations pass {report.get('failed_ops')}", failures)
            if result is None:
                continue
            parsed = json.loads(json.dumps(result))
            expect(set(parsed) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys", failures)
            got = {k: v["unit"] for k, v in parsed["metrics"].items()}
            expect(got == units[trace], f"{label}: metric names and units match BENCHMARK.json", failures)
            if name != "certify" and not trace:
                digests = report["digests"]
                expect(len(digests) >= 2 and all(digests) and all(d == digests[0] for d in digests),
                       f"{label}: repeats give identical digests", failures)
            if trace and name != "certify":
                coverage = report["layer_report"]["spans"]
                expect(bool(coverage), f"{label}: spans recorded", failures)

    wrong = tiny("baseline_train")
    wrong.expect_calls = [("train", "objectives.sigreg_statistic", 1)]
    result, _ = run.run(wrong, 0, True)
    expect(result is not None and result["failed"] == 1, "a wrong call count fails the traced run", failures)

    fake = itertools.count()
    real_sha256 = run.sha256
    run.sha256 = lambda path: str(next(fake))
    try:
        result, _ = run.run(tiny("baseline_train"), 0, False)
    finally:
        run.sha256 = real_sha256
    expect(result is not None and result["failed"] >= 1, "differing digests fail the run", failures)

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and proc.stdout == "", "outside a checkout: non-zero exit, no result", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
