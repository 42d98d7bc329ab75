"""Run one ergodic-hj CLI invocation in this fresh process and record it.

``run.py`` starts one of these per measured invocation:

    python3 perfbench/child.py --src SRC --result OUT.json [--trace] [--setup-only] \
        [--calibration FILE] -- all --config CFG --out DIR --jobs 1 --seed N

The result file holds the exit code, any uncaught exception, the CPU
seconds the process used, the peak RSS, and the spans: one per CLI command
always, and every traced layer with ``--trace``.  Each span carries the
wall clock (``time.monotonic``) and the process's CPU clock at its start
and end; the CPU clock at the first command span is the set-up's CPU
time, interpreter start included.  With ``--calibration`` the calibration
loop's (units, CPU seconds) pair is read at the same points and at the
end, so the parent can scale each interval by the core's speed during it.
``--setup-only`` replaces the commands by no-ops: the process imports,
parses its config, dispatches and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import calibrate
import spans

#: exit code for an exception the CLI did not catch (Python's own is 1,
#: which the CLI also uses for a verdict failure)
EXIT_UNCAUGHT = 70


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding ergodic_hj")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="record every layer")
    parser.add_argument("--setup-only", action="store_true", help="no-op commands")
    parser.add_argument("--calibration", help="file the calibration loop writes")
    args = parser.parse_args(argv[:split])
    sys.path.insert(0, args.src)

    from ergodic_hj import cli

    if args.setup_only:
        for name in spans.COMMANDS:
            setattr(cli, name, lambda *a, **k: cli.EXIT_PASS)
    clock = calibrate.Clock(args.calibration) if args.calibration else None
    tracer = spans.Tracer(clock)
    spans.install(tracer, full=args.trace)
    record = {"error": None}
    try:
        code = cli.main(argv[split + 1:])
    except Exception:
        record["error"] = traceback.format_exc()
        code = EXIT_UNCAUGHT
    record["exit"] = code
    record["cpu_s"] = time.process_time()
    record["cal_end"] = clock.read() if clock is not None else None
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(tracer.export())
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
