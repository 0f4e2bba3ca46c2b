"""``repro serve`` with span recording: the traced run's server process.

Usage::

    PYTHONPATH=src python perfbench/launch.py --spans OUT.json -- \
        serve hiring --backend sqlite --db X --shards 4 --port 0

Wraps the entry points listed in :mod:`probes`, then calls the same
``repro.cli.main`` that ``python -m repro`` calls, so the process layout
is the untraced one.  The spans are written to ``OUT.json`` when the
server exits.
"""

from __future__ import annotations

import argparse
import sys

from probes import install_server
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--role", default="", help="label stored with the spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="repro CLI arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = Tracer()
    install_server(tracer)
    from repro.cli import main as repro_main

    code = repro_main(cli)
    tracer.dump(args.spans, role=args.role)
    return code


if __name__ == "__main__":
    sys.exit(main())
