"""Run ``repro serve`` under the benchmark.

Usage::

    python3 perfbench/serve_launcher.py --trace 0|1 --out PREFIX \\
        --run-id ID -- serve [repro serve arguments ...]

The launcher installs its signal handlers, then enters the ``repro``
CLI entry point:

* ``SIGUSR2`` runs :func:`benchutil.calibrate` in the server's main
  thread and records ``(time.monotonic(), seconds)``: how fast this
  server's CPU is right now, so the benchmark can normalize the server's
  times to the reference host.
* ``SIGUSR1`` writes what was recorded so far to ``PREFIX.flush.*`` (the
  benchmark sends it just before a deliberate SIGKILL, which would
  otherwise lose it).

With ``--trace 1`` the server-side layer wrappers of
:func:`tracing.install_server` are installed too.  On exit the launcher
writes ``PREFIX.cal.json`` and, traced, ``PREFIX.spans.jsonl``; the
calibration file is written last, so its presence means both are done.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from benchutil import calibrate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-id", default="serve")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    samples: list = []
    tracer = None

    def on_calibrate(*_):
        samples.append((time.monotonic(), calibrate()))

    def write(prefix: str) -> None:
        header = {"role": "server", "argv": cli_args}
        if tracer is not None:
            tracer.dump(f"{prefix}.spans.jsonl", header)
        tmp = f"{prefix}.cal.json.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"run_id": args.run_id, "calibration": samples},
                      handle)
        os.replace(tmp, f"{prefix}.cal.json")

    signal.signal(signal.SIGUSR2, on_calibrate)
    signal.signal(signal.SIGUSR1, lambda *_: write(f"{args.out}.flush"))

    from repro.cli import main as repro_main

    if args.trace:
        from tracing import Tracer, install_server
        tracer = Tracer(args.run_id)
        install_server(tracer)
    try:
        return repro_main(cli_args)
    finally:
        write(args.out)


if __name__ == "__main__":
    sys.exit(main())
