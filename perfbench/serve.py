"""Start ``repro serve`` for the benchmark, optionally with layer spans.

Usage: ``python3 -u perfbench/serve.py [--trace] --port 0``; every argument
but ``--trace`` goes to ``repro serve``.  The launcher imports the service
stack first and prints ``perfbench-imported <monotonic time>``, so the
parent can leave interpreter start-up and imports out of the server's
readiness time.  Commands on stdin: ``reset`` forgets the spans recorded
so far, ``dump`` prints them as one ``perfbench-trace <json>`` line.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402
import repro.service.dispatch  # noqa: E402,F401  (imported lazily by `serve`)
import repro.service.server  # noqa: E402,F401
import repro.service.service  # noqa: E402,F401
import tracing  # noqa: E402


def _commands(tracer: tracing.Tracer | None) -> None:
    for line in sys.stdin:
        command = line.strip()
        if tracer is None:
            continue
        if command == "reset":
            tracer.reset()
            print("perfbench-reset", flush=True)
        elif command == "dump":
            print("perfbench-trace " + json.dumps(tracer.totals()), flush=True)


def main(argv: list[str]) -> int:
    tracer = None
    if "--trace" in argv:
        argv = [arg for arg in argv if arg != "--trace"]
        tracer = tracing.Tracer()
        tracing.install(tracer)
    threading.Thread(target=_commands, args=(tracer,), daemon=True).start()
    print(f"perfbench-imported {time.monotonic()!r}", flush=True)
    return repro.cli.main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
