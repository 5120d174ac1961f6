"""Chat-completion stub endpoint for the remote benchmark workloads.

Runs in its own process so that serving requests does not compete with
the harness for one interpreter lock. Every POST waits LATENCY_MS and
answers the canonical sentence, or 500 once its route has received
more than ``refuse_after`` requests. Counts are kept per URL path, so
each benchmark repeat posts to its own path and reads its own counts
with ``GET /stats/<path>``.

    python3 bench/stub.py [--refuse-after 400]

prints ``PORT <n>`` on its first line once it is listening on 127.0.0.1,
and shuts down when its standard input closes, so it never outlives the
process that started it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ANSWER = "The next crash will happen on 2022-03-04 caused by driver power state failure."
LATENCY_MS = 10.0


class RouteCounter:
    """Per-route request counts and the refuse-after-threshold rule."""

    def __init__(self, refuse_after: int | None = None):
        self.refuse_after = refuse_after
        self._lock = threading.Lock()
        self._counts: dict[str, dict[str, int]] = {}

    def admit(self, route: str) -> bool:
        """Count one request on a route; False once the threshold is passed."""
        with self._lock:
            counts = self._counts.setdefault(route, {"hits": 0, "refused": 0})
            counts["hits"] += 1
            refused = self.refuse_after is not None and counts["hits"] > self.refuse_after
            if refused:
                counts["refused"] += 1
            return not refused

    def stats(self, route: str) -> dict[str, int]:
        with self._lock:
            return dict(self._counts.get(route, {"hits": 0, "refused": 0}))


def make_server(counter: RouteCounter, latency_s: float) -> ThreadingHTTPServer:
    answer_body = json.dumps({"choices": [{"message": {"content": ANSWER}}]}).encode()

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps connections open, so a client that reuses them can.
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            self.rfile.read(length)
            admitted = counter.admit(self.path)
            time.sleep(latency_s)
            if admitted:
                self._send(200, answer_body)
            else:
                self._send(500, b"")

        def do_GET(self):
            prefix = "/stats"
            if not self.path.startswith(prefix + "/"):
                self._send(404, b"")
                return
            self._send(200, json.dumps(counter.stats(self.path[len(prefix):])).encode())

        def _send(self, status: int, payload: bytes):
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refuse-after", type=int, default=None)
    args = parser.parse_args()
    server = make_server(RouteCounter(args.refuse_after), LATENCY_MS / 1000.0)

    def shut_down_at_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=shut_down_at_eof, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
