"""Hub process of the hub_tcp workload: one Hub behind a HubServer.

    python3 perfbench/hub_server.py [--trace SPANS_FILE]

Prints ``port <n>`` once it listens on 127.0.0.1. It serves until a line
arrives on stdin or stdin closes, then stops the server, writes its spans
when tracing, and prints one JSON line with the number of stored envelopes,
this process's peak RSS in KiB and, when tracing, its counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from srcpath import use_checkout_src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, metavar="SPANS_FILE")
    args = parser.parse_args(argv)

    use_checkout_src()
    from labelloop.protocol import Hub, HubServer

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    hub = Hub()
    server = HubServer(("127.0.0.1", 0), hub)
    server.serve_in_background()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        server.server_close()
    stats = {"stored": hub.stored_count(),
             "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracing import write_spans
        write_spans(args.trace, tracer.threads)
        stats["counters"] = dict(tracer.counters)
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
