"""Run the crnbalance command line from a source checkout.

The package has no ``__main__`` and need not be installed, so the
benchmark client starts ``python3 bench/cli_shim.py ARGS...`` with
``PYTHONPATH=src``. When ``CRNBALANCE_BENCH_TRACE`` names a file, the
command runs traced and its spans and counters are written there as JSON
when it exits.
"""

import json
import os

from crnbalance.cli import main


def traced_main(out_path: str) -> None:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        main()
    finally:
        tracer.uninstall()
        tracer.end_item()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    trace_path = os.environ.get("CRNBALANCE_BENCH_TRACE")
    if trace_path:
        traced_main(trace_path)
    else:
        main()
