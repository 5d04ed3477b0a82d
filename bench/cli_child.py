"""Run one bipan CLI command under the layer tracer; the traced cli-small pass spawns it.

    python3 bench/cli_child.py <trace.json> <bipan arguments...>

Behaves like ``python -m bipan.cli <arguments>`` (same stdout, stderr and exit
code) and writes the start time, the import and command times, and the spans
of the command to ``<trace.json>``.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import bipan.cli  # noqa: E402

imported = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_request(0)
    start = time.perf_counter()
    try:
        return bipan.cli.main(sys.argv[2:])
    finally:
        command = time.perf_counter() - start
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump({"started": started, "import_s": imported - started, "command_s": command,
                       "spans": tracer.spans, "counts": tracer.counts}, handle)


if __name__ == "__main__":
    sys.exit(main())
