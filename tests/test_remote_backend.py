import json
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import crashcast
from crashcast.errors import (
    ProtocolError,
    RateLimited,
    Timeout,
    TransportError,
)
from crashcast.predictor import (
    MAX_BACKOFF_S,
    MAX_RETRY_LIMIT,
    SYSTEM_MESSAGE,
    BackendConfig,
    RemoteBackend,
    make_backend,
)


def config_for(url, **overrides):
    kwargs = dict(
        kind="remote-llm",
        endpoint=url,
        model_name="test-model",
        timeout=2.0,
        retry_limit=2,
        backoff_base=0.01,
    )
    kwargs.update(overrides)
    return BackendConfig(**kwargs)


def quiet_backend(config):
    return RemoteBackend(config, sleep=lambda seconds: None)


class TestRequestShape:
    def test_echo_round_trip(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("echo")))
        assert backend.complete("ping me back") == "ping me back"

    def test_wire_format(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url()))
        backend.complete("the prompt")
        body = json.loads(stub_server.last_body)
        assert body["model"] == "test-model"
        assert body["temperature"] == 0
        assert body["max_tokens"] == 64
        assert body["messages"][0] == {"role": "system", "content": SYSTEM_MESSAGE}
        assert body["messages"][1] == {"role": "user", "content": "the prompt"}

    def test_fixed_completion(self, stub_server):
        stub_server.completion = "a canned reply"
        backend = quiet_backend(config_for(stub_server.url()))
        assert backend.complete("whatever") == "a canned reply"

    def test_make_backend_builds_a_remote(self, stub_server):
        backend = make_backend(config_for(stub_server.url("echo")))
        assert backend.backend_id == "remote:test-model"
        assert backend.complete("via factory") == "via factory"


class TestRetries:
    def test_two_failures_then_success(self, stub_server):
        stub_server.fail_first = 2
        backend = quiet_backend(config_for(stub_server.url("flaky"), retry_limit=3))
        assert backend.complete("will get through") == stub_server.completion
        assert backend.total_retries == 2
        assert backend.total_calls == 1
        assert stub_server.hits == 3

    def test_retries_exhausted_surface_transport_error(self, stub_server):
        stub_server.fail_first = 50
        backend = quiet_backend(config_for(stub_server.url("flaky"), retry_limit=2))
        with pytest.raises(TransportError):
            backend.complete("never succeeds")
        assert stub_server.hits == 3

    def test_rate_limit_is_retried_then_raised(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("limited"), retry_limit=2))
        with pytest.raises(RateLimited):
            backend.complete("p")
        assert stub_server.hits == 3

    def test_client_error_is_never_retried(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("rejected"), retry_limit=5))
        with pytest.raises(ProtocolError):
            backend.complete("p")
        assert stub_server.hits == 1

    def test_a_call_that_ends_in_an_error_it_does_not_retry_is_counted(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("rejected"), retry_limit=5))
        with pytest.raises(ProtocolError):
            backend.complete("p")
        assert (backend.total_calls, backend.total_retries) == (1, 0)

    def test_backoff_doubles_per_attempt(self, stub_server):
        stub_server.fail_first = 3
        waits = []
        backend = RemoteBackend(
            config_for(stub_server.url("flaky"), retry_limit=3, backoff_base=0.5),
            sleep=waits.append,
        )
        backend.complete("p")
        assert waits == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("base", [0.5, 45.0])
    def test_no_backoff_sleep_passes_the_cap(self, base):
        waits = []
        backend = RemoteBackend(
            config_for(
                "http://127.0.0.1:9/v1/chat", retry_limit=MAX_RETRY_LIMIT, backoff_base=base
            ),
            sleep=waits.append,
        )
        with pytest.raises(TransportError):
            backend.complete("p")
        assert len(waits) == MAX_RETRY_LIMIT
        assert max(waits) == waits[-1] == MAX_BACKOFF_S
        doubled = [base * 2 ** attempt for attempt in range(MAX_RETRY_LIMIT)]
        assert waits == [min(wait, MAX_BACKOFF_S) for wait in doubled]
        if base < MAX_BACKOFF_S:  # the sleeps below the cap are as they were
            assert waits[:6] == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    def test_a_429_without_retry_after_keeps_the_backoff(self, stub_server):
        waits = []
        backend = RemoteBackend(
            config_for(stub_server.url("limited"), retry_limit=2, backoff_base=0.5),
            sleep=waits.append,
        )
        with pytest.raises(RateLimited):
            backend.complete("p")
        assert waits == [0.5, 1.0]

    @pytest.mark.parametrize(
        "header, sleeps",
        [
            ("3", [3.0, 3.0]),
            ("0", [0.0, 0.0]),
            ("30", [MAX_BACKOFF_S, MAX_BACKOFF_S]),
            ("120", [MAX_BACKOFF_S, MAX_BACKOFF_S]),  # capped
            ("9" * 400, [MAX_BACKOFF_S, MAX_BACKOFF_S]),
            # an HTTP-date, or anything else that is not delta-seconds, keeps the backoff
            ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5, 1.0]),
            ("1.5", [0.5, 1.0]),
            ("-1", [0.5, 1.0]),
            ("\u0663", [0.5, 1.0]),  # a digit, but not an ASCII one
            ("", [0.5, 1.0]),
        ],
    )
    def test_retry_after_in_seconds_replaces_the_backoff_sleep(self, stub_server, header, sleeps):
        stub_server.fail_first = 2
        stub_server.retry_after = header
        waits = []
        backend = RemoteBackend(
            config_for(stub_server.url("retry-after"), retry_limit=2, backoff_base=0.5),
            sleep=waits.append,
        )
        assert backend.complete("p") == stub_server.completion
        assert waits == sleeps
        assert stub_server.hits == 3
        assert backend.total_retries == 2

    def test_zero_retry_limit_means_one_attempt(self, stub_server):
        stub_server.fail_first = 1
        backend = quiet_backend(config_for(stub_server.url("flaky"), retry_limit=0))
        with pytest.raises(TransportError):
            backend.complete("p")
        assert stub_server.hits == 1


class TestErrorTaxonomy:
    def test_slow_server_maps_to_timeout(self, stub_server):
        stub_server.sleep_s = 1.0
        backend = quiet_backend(
            config_for(stub_server.url(), timeout=0.1, retry_limit=0)
        )
        with pytest.raises(Timeout):
            backend.complete("p")

    def test_unreachable_endpoint_maps_to_transport_error(self):
        backend = quiet_backend(
            config_for("http://127.0.0.1:9/v1/chat", retry_limit=0)
        )
        with pytest.raises(TransportError):
            backend.complete("p")

    def test_non_json_body_is_a_protocol_error(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("garbage")))
        with pytest.raises(ProtocolError):
            backend.complete("p")
        assert stub_server.hits == 1

    def test_missing_choices_is_a_protocol_error(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("misshapen")))
        with pytest.raises(ProtocolError):
            backend.complete("p")

    def test_non_string_content_is_a_protocol_error(self, stub_server):
        stub_server.completion = 17
        backend = quiet_backend(config_for(stub_server.url()))
        with pytest.raises(ProtocolError):
            backend.complete("p")

    def test_lone_surrogate_in_the_completion_is_a_protocol_error(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("surrogate")))
        with pytest.raises(ProtocolError, match="surrogate"):
            backend.complete("p")
        assert stub_server.hits == 1

    @pytest.mark.parametrize("route", ["hangup", "truncated"])
    def test_broken_connection_maps_to_transport_error(self, stub_server, route):
        backend = quiet_backend(config_for(stub_server.url(route), retry_limit=0))
        with pytest.raises(TransportError):
            backend.complete("p")
        assert stub_server.hits == 1

    def test_the_stub_ends_quietly_when_its_client_has_hung_up(self, stub_server, monkeypatch):
        server, errors, ended = stub_server._server, [], threading.Event()
        real_shutdown_request = server.shutdown_request

        def shutdown_request(request):  # the last thing a handler thread does
            real_shutdown_request(request)
            ended.set()

        # what prints the traceback of a handler's error
        monkeypatch.setattr(server, "handle_error", lambda *_: errors.append(sys.exc_info()[1]))
        monkeypatch.setattr(server, "shutdown_request", shutdown_request)
        stub_server.sleep_s = 0.2
        with socket.create_connection(server.server_address[:2]) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(b"POST /fixed HTTP/1.1\r\nHost: stub\r\nContent-Length: 2\r\n\r\n{}")
            deadline = time.monotonic() + 10
            while not stub_server.hits:
                assert time.monotonic() < deadline, "the stub never read the request"
                time.sleep(0.005)
        # closed with a reset while the stub sleeps: its answer finds no client
        assert ended.wait(10)
        assert errors == []
        assert stub_server.hits == 1


class TestKeptAlive:
    def test_sequential_calls_share_one_connection_without_a_delayed_ack(self, keep_alive_stub):
        backend = quiet_backend(config_for(keep_alive_stub.url("echo")))
        started = time.perf_counter()
        for n in range(40):
            assert backend.complete(f"prompt {n}") == f"prompt {n}"
        elapsed = time.perf_counter() - started
        assert keep_alive_stub.connections == 1
        assert keep_alive_stub.hits == 40
        # the stub writes each answer's headers and body apart: while its first segment waits
        # for a delayed ACK (up to 40 ms), Nagle's algorithm holds the body back
        assert elapsed < 40 * 0.040 / 4, f"40 calls took {elapsed:.2f} s"

    def test_a_connection_the_server_closed_is_reopened_and_sent_once(self, keep_alive_stub):
        backend = quiet_backend(config_for(keep_alive_stub.url("closing"), retry_limit=0))
        for n in range(1, 4):
            assert backend.complete("p") == keep_alive_stub.completion
            assert keep_alive_stub.hits == n
            assert keep_alive_stub.connections == n
        assert backend.total_calls == 3
        assert backend.total_retries == 0

    def test_a_server_that_closes_each_connection_gets_a_new_one_a_call(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url(), retry_limit=0))
        for n in range(1, 4):
            assert backend.complete("p") == stub_server.completion
            assert stub_server.connections == stub_server.hits == n

    def test_a_server_error_closes_the_connection(self, keep_alive_stub):
        keep_alive_stub.fail_first = 1
        backend = quiet_backend(config_for(keep_alive_stub.url("flaky"), retry_limit=1))
        assert backend.complete("p") == keep_alive_stub.completion
        assert backend.complete("p") == keep_alive_stub.completion
        assert keep_alive_stub.hits == 3
        assert keep_alive_stub.connections == 2


def test_importing_crashcast_loads_no_requests_module():
    code = (
        "import sys, crashcast, crashcast.cli;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(Path(crashcast.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_a_baseline_run_loads_no_http_stack(tmp_path):
    """The HTTP modules are imported by a remote backend's first request, not by the package."""
    http_stack = {"ssl", "http.client", "urllib.request"}
    run = (
        "import sys, crashcast, crashcast.cli\n"
        "from crashcast.config import parse_run_config\n"
        "from crashcast.pipeline import run_all\n"
        "run_all(parse_run_config({'seed': 9, 'split': {'train_pairs': 30, 'validation_pairs': 12},"
        " 'generator': {'n_systems': 6, 'days': 240}, 'paths': {'out_dir': sys.argv[1]}}))\n"
    )
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"

    def modules_after(code):
        result = subprocess.run(
            [sys.executable, "-c", code + "\n" + report, str(tmp_path / "out")],
            env={"PYTHONPATH": str(Path(crashcast.__file__).parents[1])},
            capture_output=True,
            text=True,
            check=True,
        )
        return set(json.loads(result.stdout))

    loaded = modules_after(run)
    assert (tmp_path / "out" / "report.json").is_file()
    assert "crashcast.predictor" in loaded
    assert not http_stack & (loaded - modules_after("pass"))


# a small baseline run in a fresh interpreter, its output directory the first argument,
# then the JSON of `result`; `before` runs ahead of every import
_SMALL_BASELINE_RUN = (
    "import json, sys\n"
    "{before}\n"
    "from crashcast._seed import derive_seed, sha256\n"
    "from crashcast.config import config_digest, parse_run_config\n"
    "from crashcast.pipeline import run_all\n"
    "config = parse_run_config({{'seed': 9, 'split': {{'train_pairs': 30, 'validation_pairs': 12}},"
    " 'generator': {{'n_systems': 6, 'days': 240}}, 'paths': {{'out_dir': sys.argv[1]}}}})\n"
    "run_all(config)\n"
    "print(json.dumps({result}))\n"
)


def _run_python(code, out):
    result = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        env={"PYTHONPATH": str(Path(crashcast.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_a_baseline_run_loads_no_openssl(tmp_path):
    """Every digest is the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto."""
    openssl = {"_hashlib", "hashlib", "ssl"}
    loaded = _run_python(_SMALL_BASELINE_RUN.format(before="", result="sorted(sys.modules)"), tmp_path)
    bare = _run_python("import json, sys; print(json.dumps(sorted(sys.modules)))", tmp_path)
    assert (tmp_path / "report.json").is_file()
    assert "crashcast._seed" in loaded
    assert not openssl & ({*loaded} - {*bare})


def test_the_hashlib_fallback_gives_the_same_digests(tmp_path):
    """Where the interpreter has no SHA-256 of its own, hashlib's gives every digest unchanged."""
    result = (
        "[sha256.__module__, derive_seed(9, 'shots', 'SYS-3', 7), config_digest(config),"
        " json.load(open(sys.argv[1] + '/manifest.json'))['outputs'],"
        " json.load(open(sys.argv[1] + '/ingest.json'))['source_digest']]"
    )
    no_builtin = "sys.modules['_sha2'] = sys.modules['_sha256'] = None"
    out = tmp_path / "out"  # the same for both runs: the config digest holds it
    builtin = _run_python(_SMALL_BASELINE_RUN.format(before="", result=result), out)
    fallback = _run_python(_SMALL_BASELINE_RUN.format(before=no_builtin, result=result), out)
    assert builtin[0] in {"_sha2", "_sha256"}
    assert fallback[0] not in {"_sha2", "_sha256"}
    assert fallback[1:] == builtin[1:]
    assert None not in builtin[3].values()
    assert builtin[4] == builtin[3]["logs"]


class TestCounters:
    def test_counters_accumulate_across_threads(self, stub_server):
        backend = quiet_backend(config_for(stub_server.url("echo")))
        errors = []

        def worker(i):
            try:
                backend.complete(f"prompt {i}")
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert backend.total_calls == 8
        assert backend.total_retries == 0
