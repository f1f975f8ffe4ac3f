"""Service worker entry point for the ``service-mix`` workload.

Installs the layer wrappers when ``--traced`` is given, then serves the
job service through :func:`repro.cluster.run_worker` until it says bye::

    python3 perfbench/worker.py HOST:PORT --spans DIR [--traced]
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("address")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    path = None
    if args.traced:
        import tracer

        path = tracer.install_worker(args.spans)
    from repro.cluster import run_worker

    run_worker(args.address)
    if path is not None:
        tracer.tracer().dump(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
