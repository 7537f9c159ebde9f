"""Traced stand-in for ``python -m hyperstat``: same argv, same exit code.

Usage: ``python bench/cli_child.py SPANS_OUT <hyperstat arguments>``.  Times
the import of ``hyperstat.cli``, installs the span wrappers, calls
``hyperstat.cli.main`` and writes the spans to SPANS_OUT on the way out, also
when the command raises (the traceback then reaches stderr as usual).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hyperstat.cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.bucket = "ops"
    try:
        return hyperstat.cli.main(argv)
    finally:
        data = tracer.export()
        data["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
