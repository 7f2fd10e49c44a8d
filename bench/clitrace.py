"""Run one ``slevolve`` command with the benchmark tracer installed.

Usage: python bench/clitrace.py SPANS_JSON <slevolve arguments...>

The exit code is the command's; spans and counts go to SPANS_JSON for the
worker to merge into its own trace.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import slevolve.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        return slevolve.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump({"spans": [s[:4] for s in tracer.spans],
                       "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
