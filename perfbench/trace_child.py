"""Run one ``rsmlqr`` command line under the tracer and export its spans.

Usage: python trace_child.py SPANS_JSON ARG...

The arguments after SPANS_JSON are those ``python -m rsmlqr`` takes.  The
exit code is the command's own, so the caller checks it exactly as for an
untraced call.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import rsmlqr.cli  # noqa: E402  (the tracer wraps attributes of this package)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed(), tracer.span("op"):
        code = rsmlqr.cli.main(argv)
    Path(out).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
