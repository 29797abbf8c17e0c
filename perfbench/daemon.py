"""Run the ``repro`` CLI with the benchmark's layer spans installed.

    python3 perfbench/daemon.py --spans SPANS.json -- serve --port 0 ...

Runs ``repro <args>`` (normally ``serve``) in this process with every
:data:`spans.TARGETS` wrapper and the gc callback installed, and writes
the recorded spans to ``SPANS.json`` as a JSON list once the command
returns (``serve`` returns after SIGTERM or SIGINT).
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: daemon.py --spans FILE -- <repro arguments>",
              file=sys.stderr)
        return 2
    from repro.__main__ import main as repro_main
    tracer = Tracer()
    tracer.install()
    try:
        code = repro_main(argv[3:])
    finally:
        tracer.uninstall()
        pathlib.Path(argv[1]).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
