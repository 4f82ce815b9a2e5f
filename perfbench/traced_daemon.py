#!/usr/bin/env python3
"""Run ``repro.cli serve`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_daemon.py serve --socket PATH [serve options]

The wrappers go in before ``serve_forever``, so every query the daemon
answers is traced.  The daemon also answers one extra request op,
``bench_trace``, which only this launcher adds:

* ``{"op": "bench_trace", "action": "reset"}`` forgets the spans so far
  (the benchmark sends it once the warm-up queries are done);
* ``{"op": "bench_trace", "action": "summary"}`` returns the recorder's
  self times, folded call counts, counters and query spans.

On exit every span is written to ``$PERFBENCH_SPANS`` when that is set.
"""

from __future__ import annotations

import os
import sys

from harness import SRC

sys.path.insert(0, SRC)

from tracing import SpanRecorder, install  # noqa: E402


def main() -> int:
    from repro import cli
    from repro.service import protocol
    from repro.service.daemon import ServiceDaemon

    recorder = SpanRecorder()
    install(recorder)
    route = ServiceDaemon._route

    def bench_route(self, message):
        if message.get("op") != "bench_trace":
            if message.get("op") == "cell":
                recorder.op_id += 1
            return route(self, message)
        if message.get("action") == "reset":
            recorder.reset()
            return protocol.ok_reply({"reset": True})
        return protocol.ok_reply(recorder.summary())

    ServiceDaemon._route = bench_route
    try:
        return cli.main(sys.argv[1:])
    finally:
        path = os.environ.get("PERFBENCH_SPANS")
        if path:
            recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main())
