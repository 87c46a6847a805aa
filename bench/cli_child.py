"""Run one spikeradar command with the benchmark's tracer installed.

    python3 bench/cli_child.py SPANS.json -- <spikeradar arguments>

Times the import of the command-line module in this fresh interpreter,
wraps the package's functions, runs the command and writes
{"import_s": ..., "spans": [...]} to SPANS.json. Exits with the command's
exit code. The benchmark uses it in place of `python -m spikeradar` in its
traced runs.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: cli_child.py SPANS.json -- ARGS...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import spikeradar.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    with tracer.recording("run"):
        code = spikeradar.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
