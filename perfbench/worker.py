"""One benchmark operation in a fresh, single-threaded process.

Started by run.py as `worker.py WORKLOAD CONFIG OUT [--trace]` (or with
`--setup-only`).  Set-up is the import of the `lab` CLI plus parsing the
generated config; the operation is one in-process `densitylab.cli.main`
call with its stdout captured; the checks run after the clock stops.
Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("config")
    p.add_argument("out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy
    from densitylab import cli, config

    config.parse_config(args.config)
    result = {"setup_s": time.perf_counter() - T0,
              "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    workload = WORKLOADS[args.workload]
    entry = cli.main
    tracer = None
    if args.trace:
        from tracing import Tracer, install, layer_metrics
        tracer = Tracer()
        result["missing_hooks"] = install(tracer)
        entry = tracer.wrap("cli", cli.main)
        tracer.active = True

    captured = io.StringIO()
    failures = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured):
            rc = entry(workload.argv(args.config, args.out))
    except Exception as exc:   # an escaped error is a failed operation, not a crash
        rc = None
        failures.append(f"cli raised {_failure(exc)}")
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.active = False
        result["layers"] = layer_metrics(tracer)

    if rc != 0:
        failures.append(f"exit code {rc}")
    else:
        try:
            found, result["check"] = workload.check(args.config, args.out, captured.getvalue())
            failures += found
        except Exception as exc:   # unreadable or missing outputs fail the check
            failures.append(f"check raised {_failure(exc)}")
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
