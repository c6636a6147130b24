"""Time what every qclab CLI call pays before any point is computed.

Run in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 perfbench/setup_probe.py --chart heisenberg-2
    python3 perfbench/setup_probe.py --config perfbench/qc_einstein.qc

It imports ``qclab.cli`` and resolves the chart the way the CLI does
(``get_chart``, or ``load_config`` with its validation at the configured
sample points), and prints one JSON line with both times in seconds.
"""

import json
import sys
import time


def main(argv):
    if len(argv) != 2 or argv[0] not in ("--chart", "--config"):
        print("usage: setup_probe.py (--chart NAME | --config PATH)",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    import qclab.cli  # noqa: F401  (the import is what is timed)
    from qclab import catalog
    imported = time.perf_counter()
    if argv[0] == "--config":
        catalog.load_config(argv[1])
    else:
        catalog.get_chart(argv[1])
    resolved = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "chart_s": resolved - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
