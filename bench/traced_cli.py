"""Run one ``actlab`` command with tracing installed; write its spans as JSON.

    python3 bench/traced_cli.py SPANS.json classify tensor.json

Used by the traced ``cli-files`` run in place of the ``actlab`` console
script; stdout and the exit code are the command's own.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import actlab.cli

    tracer = Tracer()
    tracer.begin(None, None)
    tracer.install()
    try:
        code = actlab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
