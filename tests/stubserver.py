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
traceback, and its request still counted in hits. StubServer(context=...)
serves through that SSL context, at an https:// URL.

RawStub answers every request with canned bytes, written as given, for
tests of how a client reads an answer, malformed ones included.

Run as a script, it serves a kept-alive StubServer from a process of its
own: it prints the URL of its fixed route and stops when its standard
input closes.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer:
    def __init__(self, keep_alive: bool = False, context=None):
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
        self.scheme = "http"
        if context is not None:  # each accepted connection does its TLS handshake first
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
            self.scheme = "https"
        # a short poll lets stop() return within 20 ms, not the default 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def url(self, route: str = "fixed") -> str:
        host, port = self._server.server_address[:2]
        return f"{self.scheme}://{host}:{port}/{route}"

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


# RawStub's steps besides bytes and seconds: close the connection, or close it with a TCP reset
CLOSE = "close"
RESET = "reset"


class RawStub:
    """Answers every request with the same canned steps, on a raw socket.

    A bytes step is written as one segment, a number is slept in seconds,
    and CLOSE or RESET ends the connection; steps that end with neither
    leave it open for the next request. It counts the connections it
    accepts and the requests it reads, and keeps each request's head.
    """

    def __init__(self, *steps):
        self.steps = steps
        self.connections = 0
        self.hits = 0
        self.heads: list[bytes] = []
        self.lock = threading.Lock()
        self._open: list[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)  # how soon the accepting thread sees stop()
        self._stopped = threading.Event()
        self._threads = [threading.Thread(target=self._accept, daemon=True)]

    def start(self) -> "RawStub":
        self._threads[0].start()
        return self

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def url(self, route: str = "raw") -> str:
        return f"http://127.0.0.1:{self.port}/{route}"

    def stop(self):
        self._stopped.set()
        self._threads[0].join(10)
        self._listener.close()
        with self.lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked reading it
                except OSError:
                    pass
        for thread in self._threads:
            thread.join(10)

    def _accept(self):
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self.lock:
                self.connections += 1
                self._open.append(conn)
                self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket):
        reader = conn.makefile("rb")
        try:
            while self._answer(conn, reader):
                pass
        except OSError:  # the client hung up, or stop() shut the connection
            pass
        finally:
            reader.close()
            conn.close()

    def _answer(self, conn: socket.socket, reader) -> bool:
        """Read one request and write the steps; False once the connection is over."""
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = reader.readline()
            if not line:
                return False
            head += line
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        reader.read(length)
        with self.lock:
            self.hits += 1
            self.heads.append(head)
        for step in self.steps:
            if step == RESET:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                return False
            if step == CLOSE:
                return False
            if isinstance(step, bytes):
                conn.sendall(step)
            else:
                time.sleep(step)
        return True


if __name__ == "__main__":
    server = StubServer(keep_alive=True).start()
    print(server.url(), flush=True)
    sys.stdin.read()
    server.stop()
