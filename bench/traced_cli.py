#!/usr/bin/env python3
"""One aggseek CLI invocation with spans around the calls into each module.

    python3 bench/traced_cli.py SPANS_JSON RUN_ID <aggseek arguments...>

`run.py --trace 1` starts this in place of the plain CLI. The CLI's stdout,
stderr and exit code pass through unchanged; the spans go to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    with tracer.install():
        from aggseek.cli import main as cli_main

        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
