"""One boxworld CLI call under the tracer, for traced ``cli_cold`` runs.

    python3 bench/child.py SNAPSHOT.json ARG...

Runs ``boxworld ARG...`` like ``python -m boxworld`` would, with every
layer's public functions wrapped, and writes the tracer's totals to
SNAPSHOT.json.
"""

import json
import sys
from pathlib import Path

import tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from boxworld import cli  # noqa: E402


def main() -> int:
    snapshot, argv = Path(sys.argv[1]), sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        return cli.main(argv)
    finally:
        t.uninstall()
        snapshot.write_text(json.dumps(t.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
