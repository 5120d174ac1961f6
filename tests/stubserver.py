"""A tiny in-process chat-completion stub for backend tests.

Behavior is driven by the URL path: /echo answers with a canned or
reflected completion, /flaky fails a set number of times first, and the
error paths answer with whatever status, body shape or broken
connection the test needs.

By default the stub speaks HTTP/1.0 and closes each connection after one
answer; StubServer(keep_alive=True) speaks HTTP/1.1 and keeps it open.
Either way it counts the connections it accepts. Like http.server, it
writes an answer's headers and body as two segments. A client that hangs
up before its answer is written ends the connection quietly: no
traceback, and its request still counted in hits.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer:
    def __init__(self, keep_alive: bool = False):
        self.hits = 0
        self.connections = 0
        self.retry_after = "1"  # the Retry-After header of a /retry-after 429
        self.in_flight = 0
        self.most_in_flight = 0  # the most requests it was answering at once
        self.fail_first = 0
        self.die_after = 0
        self.sleep_s = 0.0
        self.completion = "stub answer"
        self.last_body = b""
        self.lock = threading.Lock()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                with stub.lock:
                    stub.connections += 1

            def handle(self):
                try:
                    super().handle()
                except (BrokenPipeError, ConnectionResetError):  # the client hung up
                    self.close_connection = True

            def do_POST(self):
                with stub.lock:
                    stub.hits += 1
                    stub.in_flight += 1
                    stub.most_in_flight = max(stub.most_in_flight, stub.in_flight)
                    hits = stub.hits
                try:
                    self._answer(hits)
                finally:
                    with stub.lock:
                        stub.in_flight -= 1

            def _answer(self, hits: int):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                with stub.lock:
                    stub.last_body = raw
                body = json.loads(raw) if raw else {}
                if stub.sleep_s:
                    time.sleep(stub.sleep_s)
                route = self.path.rstrip("/").rsplit("/", 1)[-1]
                if route == "flaky" and hits <= stub.fail_first:
                    self._status(500)
                    return
                if route == "mortal" and stub.die_after and hits > stub.die_after:
                    self._status(500)
                    return
                if route == "limited":
                    self._status(429)
                    return
                if route == "retry-after" and hits <= stub.fail_first:
                    self._status(429, ("Retry-After", stub.retry_after))
                    return
                if route == "rejected":
                    self._status(400)
                    return
                if route == "garbage":
                    self._reply(b"not json at all")
                    return
                if route == "misshapen":
                    self._reply(json.dumps({"choices": []}).encode())
                    return
                if route == "surrogate":
                    self._reply(self._completion_body("\ud800"))
                    return
                if route == "hangup":
                    self.close_connection = True
                    return
                if route == "truncated":
                    payload = self._completion_body(stub.completion)
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(payload) + 10))
                    self.end_headers()
                    self.wfile.write(payload)
                    self.close_connection = True
                    return
                if route == "closing":  # answers, then closes without saying so
                    self._reply(self._completion_body(stub.completion))
                    self.close_connection = True
                    return
                if route == "echo":
                    prompt = body["messages"][-1]["content"]
                    self._reply(self._completion_body(prompt))
                    return
                self._reply(self._completion_body(stub.completion))

            def _completion_body(self, text: str) -> bytes:
                return json.dumps(
                    {"choices": [{"message": {"content": text}}]}
                ).encode()

            def _status(self, code: int, *headers: tuple[str, str]):
                self.send_response(code)
                for name, value in headers:
                    self.send_header(name, value)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def _reply(self, payload: bytes):
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll lets stop() return within 20 ms, not the default 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def url(self, route: str = "fixed") -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/{route}"

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
