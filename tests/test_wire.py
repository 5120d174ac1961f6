"""The remote backend's HTTP/1.1 reader, against http.client as its oracle.

Each canned answer is written as raw bytes by tests/stubserver.py's RawStub.
RemoteBackend._exchange must give the (status, Retry-After, body) that
http.client gives on the same bytes, or fail with a TransportError where
http.client fails, and both must agree on whether the connection carries
the next request.
"""

import http.client
import json
import shutil
import socket
import ssl
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from stubserver import CLOSE, RESET, RawStub, StubServer

import crashcast
from crashcast.config import parse_run_config
from crashcast.errors import ConfigError, TransportError
from crashcast.predictor import BackendConfig, RemoteBackend, close_connections

PAYLOAD = json.dumps({"messages": [{"role": "user", "content": "p"}]}).encode()
BODY = json.dumps({"choices": [{"message": {"content": "stub answer"}}]}).encode()
SIZED = b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
OK = b"HTTP/1.1 200 OK\r\n" + SIZED
ANSWERED = (200, None, BODY)


def backend_for(url, timeout=2.0):
    config = BackendConfig(kind="remote-llm", endpoint=url, timeout=timeout, retry_limit=0)
    return RemoteBackend(config, sleep=lambda seconds: None)


def by_http_client(stub, calls, timeout=2.0):
    """What http.client gives on the stub's bytes, as RemoteBackend asked it before its own reader."""
    connection = http.client.HTTPConnection("127.0.0.1", stub.port, timeout=timeout)
    results = []
    try:
        for _ in range(calls):
            try:
                connection.request("POST", "/raw", PAYLOAD, {"Content-Type": "application/json"})
                response = connection.getresponse()
                results.append((response.status, response.getheader("Retry-After"), response.read()))
            except (OSError, http.client.HTTPException):
                connection.close()
                results.append(TransportError)
    finally:
        connection.close()
    return results


def by_remote_backend(stub, calls, timeout=2.0):
    backend = backend_for(stub.url(), timeout)
    results = []
    try:
        for _ in range(calls):
            try:
                results.append(backend._exchange(PAYLOAD))
            except TransportError:
                results.append(TransportError)
    finally:
        close_connections()
    return results


def both_on(steps, calls, timeout=2.0):
    """Each client's results and the connections it opened, each against a fresh stub."""
    seen = []
    for client in (by_http_client, by_remote_backend):
        stub = RawStub(*steps).start()
        try:
            seen.append((client(stub, calls, timeout), stub.connections))
        finally:
            stub.stop()
    return seen


def chunked(*parts):
    return b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in parts)


@pytest.mark.parametrize(
    "steps, result, connections",
    [
        pytest.param((OK,), ANSWERED, 1, id="content-length"),
        pytest.param(
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                chunked(BODY[:7], BODY[7:]) + b"0\r\nX-Checksum: none\r\n\r\n",
            ),
            ANSWERED,
            1,
            id="chunked-with-an-extension-and-a-trailer",
        ),
        pytest.param(
            (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + BODY, CLOSE),
            ANSWERED,
            2,
            id="close-delimited-http-1.0",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\n\r\n" + BODY, CLOSE), ANSWERED, 2, id="close-delimited-http-1.1"
        ),
        pytest.param(
            (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n" + SIZED,),
            ANSWERED,
            1,
            id="http-1.0-with-keep-alive",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nConnection: close\r\n" + SIZED, CLOSE),
            ANSWERED,
            2,
            id="connection-close",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\ncOnNeCtIoN: Keep-Alive\r\nCONTENT-length: %d\r\n\r\n%s" % (len(BODY), BODY),),
            ANSWERED,
            1,
            id="header-names-in-mixed-case",
        ),
        pytest.param(
            (b"HTTP/1.1 100 Continue\r\n\r\n", 0.01, OK), ANSWERED, 1, id="100-continue-first"
        ),
        pytest.param((b"HTTP/1.1 204 No Content\r\n\r\n",), (204, None, b""), 1, id="204"),
        pytest.param((b"HTTP/1.1 304 Not Modified\r\n\r\n",), (304, None, b""), 1, id="304"),
        pytest.param(
            (b"HTTP/1.1 429 Too Many Requests\r\nretry-AFTER: 7\r\nContent-Length: 0\r\n\r\n",),
            (429, "7", b""),
            1,
            id="retry-after-on-a-429",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\n" + b"X-Field: x\r\n" * 98 + SIZED,),
            ANSWERED,
            1,
            id="99-header-fields",
        ),
    ],
)
def test_the_reader_gives_what_http_client_gives(steps, result, connections):
    oracle, reader = both_on(steps, calls=2)
    assert reader == oracle == ([result] * 2, connections)


@pytest.mark.parametrize(
    "steps",
    [
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY) + 10, BODY), CLOSE),
            id="a-close-in-mid-body",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(BODY), 0.05, RESET),
            id="a-reset-right-after-the-headers",
        ),
        pytest.param((b"SPAM SPAM SPAM\r\n\r\n",), id="a-garbage-status-line"),
        pytest.param((b"HTTP/1.1 2OO OK\r\n" + SIZED,), id="a-status-that-is-not-three-digits"),
        pytest.param((b"HTTP/2 200\r\n" + SIZED,), id="not-http-1"),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n" + SIZED,),
            id="a-header-line-over-65536-bytes",
        ),
        pytest.param((b"HTTP/1.1 200 OK\r\n" + b"X-Field: x\r\n" * 101 + SIZED,), id="101-headers"),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(BODY)[:20], CLOSE),
            id="a-close-in-mid-chunk",
        ),
        pytest.param(
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n" + BODY,),
            id="a-chunk-size-that-is-not-hexadecimal",
        ),
    ],
)
def test_a_faulty_answer_is_a_transport_error_as_http_client_fails(steps):
    oracle, reader = both_on(steps, calls=1)
    assert reader == oracle == ([TransportError], 1)


def test_a_chunk_that_does_not_end_at_its_size_is_a_transport_error():
    """http.client reads the two bytes after a chunk unchecked, so it took this answer whole."""
    steps = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(BODY)[:-2] + b"XX0\r\n\r\n",)
    oracle, reader = both_on(steps, calls=1)
    assert oracle == ([ANSWERED], 1)
    assert reader == ([TransportError], 1)


def test_a_drip_of_bytes_under_the_timeout_is_read_whole():
    gaps = [(OK[start:start + 8], 0.03) for start in range(0, len(OK), 8)]
    steps = [step for gap in gaps for step in gap]
    assert len(steps) * 0.03 / 2 > 0.3  # the answer takes longer than the timeout, each gap less
    oracle, reader = both_on(steps, calls=1, timeout=0.3)
    assert reader == oracle == ([ANSWERED], 1)


def test_every_interim_1xx_is_skipped_where_http_client_skipped_only_100():
    steps = (b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>; rel=preload\r\n\r\n", OK)
    stub = RawStub(*steps).start()
    try:
        assert by_remote_backend(stub, 2) == [ANSWERED] * 2
        assert stub.connections == 1
        assert by_http_client(stub, 1) == [(103, None, b"")]  # the named change
    finally:
        stub.stop()


@pytest.mark.parametrize(
    "endpoint",
    [
        "http://Example.invalid/v1/chat?stream=0",
        "http://example.invalid:80/v1/chat",
        "http://example.invalid:8080/v1/chat",
        "http://example.invalid:443/",
        "http://example.invalid:",
        "http://[::1]:8080/v1/chat",
        "http://[::1]/v1/chat",
    ],
)
def test_the_request_head_holds_the_fields_http_client_sends(monkeypatch, endpoint):
    sent = []

    class Capture(http.client.HTTPConnection):
        def send(self, data):
            sent.append(data)

    url = urlsplit(endpoint)
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    Capture(url.netloc, timeout=2).request("POST", target, PAYLOAD, {"Content-Type": "application/json"})
    expected = b"".join(sent)

    stub = RawStub(OK).start()
    real = socket.create_connection
    monkeypatch.setattr(socket, "create_connection", lambda address, *args: real(("127.0.0.1", stub.port), *args))
    try:
        assert backend_for(endpoint)._exchange(PAYLOAD) == ANSWERED
    finally:
        close_connections()
        stub.stop()
    head, body = expected.split(b"\r\n\r\n")
    assert body == PAYLOAD
    request_line, *fields = head.split(b"\r\n")
    assert stub.heads[0].split(b"\r\n")[0] == request_line
    assert set(stub.heads[0].split(b"\r\n")[1:-2]) == set(fields)


# --- endpoints the client cannot dial -------------------------------------------

UNDIALLABLE = [
    "http://127.0.0.1:abc/v1/chat",
    "http://user:pw@127.0.0.1:9/v1",
    "http://:80/v1",
    "http://127.0.0.1:65536/v1",
    "https://127.0.0.1:99999/v1",
    "http://127.0.0.1:9/v1/a chat",
    "http://127.0.0.1:9/v1/\x00",
    "http://127.0.0.1:9/v1/chät",
]


@pytest.mark.parametrize("endpoint", UNDIALLABLE)
def test_an_endpoint_the_client_cannot_dial_is_a_config_error(endpoint):
    with pytest.raises(ConfigError, match="backend.endpoint"):
        parse_run_config({"backend": {"kind": "remote-llm", "endpoint": endpoint}})


def test_an_endpoint_the_client_cannot_dial_is_exit_two_before_any_request(tmp_path):
    from click.testing import CliRunner

    from crashcast.cli import main

    path = tmp_path / "run.json"
    backend = {"kind": "remote-llm", "endpoint": UNDIALLABLE[0]}
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "out")}, "backend": backend}))
    result = CliRunner().invoke(main, ["--config", str(path), "run"], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "backend.endpoint" in result.output
    assert not (tmp_path / "out").exists()


# --- https ------------------------------------------------------------------------


def _certificate(directory: Path, name: str) -> tuple[Path, Path]:
    cert, key = directory / f"{name}.pem", directory / f"{name}.key"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True,
        capture_output=True,
    )
    return cert, key


@pytest.fixture
def tls_stub(tmp_path, monkeypatch):
    """A kept-alive stub served through TLS, its self-signed certificate trusted as SSL_CERT_FILE."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command makes the test's certificate")
    cert, key = _certificate(tmp_path, "stub")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    server = StubServer(keep_alive=True, context=context).start()
    yield server
    close_connections()
    server.stop()


def test_three_https_calls_share_one_connection(tls_stub):
    backend = backend_for(tls_stub.url("echo"))
    assert backend.config.endpoint.startswith("https://127.0.0.1:")
    for n in range(3):
        assert backend.complete(f"prompt {n}") == f"prompt {n}"
    assert (tls_stub.hits, tls_stub.connections) == (3, 1)


def test_an_untrusted_certificate_is_a_transport_error(tls_stub, tmp_path, monkeypatch):
    other, _ = _certificate(tmp_path, "other")
    monkeypatch.setenv("SSL_CERT_FILE", str(other))
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        backend_for(tls_stub.url("echo")).complete("p")
    assert tls_stub.hits == 0


# --- what a remote run imports ---------------------------------------------------


def test_an_http_remote_run_loads_no_http_client_email_or_ssl(tmp_path):
    """Under -S, which runs no site hook; the stub runs apart, as http.server imports http.client."""
    run = (
        "import json, sys\n"
        "from crashcast.config import parse_run_config\n"
        "from crashcast.pipeline import run_all\n"
        "run_all(parse_run_config({'seed': 9, 'split': {'train_pairs': 30, 'validation_pairs': 12},"
        " 'generator': {'n_systems': 6, 'days': 240}, 'paths': {'out_dir': sys.argv[1]},"
        " 'backend': {'kind': 'remote-llm', 'endpoint': sys.argv[2], 'max_in_flight': 2}}))\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    serve = [sys.executable, str(Path(__file__).with_name("stubserver.py"))]
    with subprocess.Popen(serve, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as stub:
        try:
            result = subprocess.run(
                [sys.executable, "-S", "-c", run, str(tmp_path), stub.stdout.readline().strip()],
                env={"PYTHONPATH": str(Path(crashcast.__file__).parents[1])},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        finally:
            stub.stdin.close()  # the stub stops at the end of its input
    loaded = set(json.loads(result.stdout))
    assert {"crashcast.predictor", "socket"} <= loaded
    assert "remote:default" in (tmp_path / "predictions.jsonl").read_text()
    assert not {"http.client", "ssl", "_ssl"} & loaded
    assert not {name for name in loaded if name.split(".")[0] == "email"}
