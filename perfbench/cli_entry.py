"""Traced command-line entry point.

Usage: python3 perfbench/cli_entry.py STATS_JSON [aqbernstein arguments...]

Installs the per-layer tracer, then runs ``aqbernstein.cli.main`` on the
given arguments exactly as the console script would, and writes the time
spent in ``main`` and the tracer's aggregates to STATS_JSON.
"""

from __future__ import annotations

import json
import sys
import time

import checkout
import tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    checkout.use_checkout_source()
    import aqbernstein.cli

    spans = tracer.Tracer()
    spans.install()
    start = time.perf_counter()
    try:
        code = aqbernstein.cli.main(argv)
    finally:
        seconds = time.perf_counter() - start
        spans.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump({"main_s": seconds, "stats": spans.stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
