"""Traced command-line request: one fresh interpreter running ordstat.cli.main.

Usage: python3 perfbench/launcher.py SPANS_FILE -- CLI_ARGS...

Installs the span wrappers, calls ``ordstat.cli.main(CLI_ARGS)`` with the
report on stdout as usual, then writes the spans and counters to SPANS_FILE
and exits with main's exit code. The fresh interpreter keeps mpmath's own
caches cold, as for an untraced ``python -m ordstat.cli`` request.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE -- CLI_ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    tracer.install()
    import ordstat.cli

    try:
        code = ordstat.cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {"spans": tracer.spans, "counts": dict(tracer.counts[None])}
        Path(spans_file).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
