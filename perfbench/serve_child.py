"""A traced ``repro serve`` replica for the benchmark's per-layer run.

Usage (from the benchmark, never by hand)::

    python perfbench/serve_child.py ARTIFACTS PORT SPANS_OUT

Installs the layer wrappers, then builds the server through
:func:`repro.service.server.serve` with the same defaults ``repro
serve`` uses, and serves until SIGTERM.  On the way out it drains, then
writes every recorded span to ``SPANS_OUT``.
"""

from __future__ import annotations

import signal
import sys

from layers import install
from spans import Tracer


def main(artifacts: str, port: int, spans_out: str) -> int:
    tracer = Tracer()
    install(tracer)
    from repro.service.server import serve

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    server = serve(artifacts, port=port, quiet=False)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop(drain=True)
        tracer.dump(spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
