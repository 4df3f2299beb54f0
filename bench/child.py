"""One benchmark repeat, run in a fresh process by run.py.

Usage: child.py --src DIR --config FILE --out DIR --threads N --launch-ns NS
                --result FILE [--setup-only] [--trace PATH]

Set-up is timed from the parent's launch timestamp through `import expertnet`
and config parsing.  The run is one call of the public entry point
`expertnet.cli.main(["run", ...])`.  The process exits with that call's
return code.  BLAS thread counts come from the environment the parent sets.
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--config", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import expertnet.cli
    from expertnet import harness

    harness.read_config(args.config)
    setup_ns = time.monotonic_ns() - args.launch_ns
    if not os.path.realpath(expertnet.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported expertnet from {expertnet.__file__}, not {src}")

    result = {"setup_ns": setup_ns, "rc": None, "wall_ns": None}
    if not args.setup_only:
        argv = ["run", "--config", args.config, "--out", args.out,
                "--threads", str(args.threads)]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            result["rc"] = expertnet.cli.main(argv)
        finally:
            result["wall_ns"] = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.uninstall()
                tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"] or 0


if __name__ == "__main__":
    sys.exit(main())
