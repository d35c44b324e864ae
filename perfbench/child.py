"""One workload process: runs hamjepa CLI commands in order.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec names the commands (argv lists for ``hamjepa.cli.main``), the
config to load and validate during set-up, whether to trace layers, and
whether to stop after set-up.  The result records the monotonic time at
which set-up ended, and each command's exit code, wall time and stdout.
run.py reads the process's CPU time and peak RSS from its rusage.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)

    from hamjepa import cli, trainer

    if spec["config"]:
        with open(spec["config"]) as fh:
            trainer.validate_config(json.load(fh))
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer, install

        tracer = Tracer()
        install(tracer)
    ready = time.monotonic()

    commands = []
    for argv in [] if spec["setup_only"] else spec["commands"]:
        if tracer is not None:
            tracer.command = argv[0]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        commands.append({"argv": argv, "exit": code, "wall_s": wall, "stdout": out.getvalue()})

    result = {
        "ready": ready,
        "commands": commands,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
