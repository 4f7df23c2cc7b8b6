"""Run one windcast command in this fresh process and report how long it took.

Usage: python3 worker.py RESULT_JSON SPANS_JSON|- WINDCAST_ARGS...

The import of ``windcast.cli`` (numpy included) is timed first, then the
call ``windcast.cli.main(argv)``. With a spans path, the tracer wraps the
package's public functions before the call and the spans are written once
it returns. The timings go to RESULT_JSON; the command's own output stays
on stdout and stderr.
"""

import os
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec.

    ru_maxrss is not used: Linux carries the spawning process's peak over
    into it across exec, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    started = time.perf_counter()
    import windcast.cli

    setup_s = time.perf_counter() - started

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    code = windcast.cli.main(argv)
    wall_s = time.perf_counter() - started

    import json

    if tracer is not None:
        tracer.remove()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_kb": peak_rss_kb(),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
