"""The shared HTTP transport of the replica and the router, over real sockets.

Both servers answer on ``TCP_NODELAY`` sockets with one write per response,
and say ``Connection: close`` whenever they close the connection after a
response.  The router reaches each replica through a keep-alive
:class:`~repro.serving.transport.UpstreamPool`: sequential queries share one
upstream connection, a socket the replica closed while idle (a restart) is
retried once without counting against the replica's health, and a response
that closes its connection never goes back to the pool.  A killed replica
stops answering on established keep-alive connections too.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from urllib.parse import urlsplit

import pytest

from cluster_harness import ClusterFixture, corpus_snapshot, make_replica
from repro.cluster import CorpusSpec, RouterApp
from repro.serving.http_api import RePaGerHTTPServer, start_in_background
from repro.serving.transport import JSONHandler, UpstreamPool
from serving_stubs import poll

#: The router's and a default replica's request-body cap.
BODY_LIMIT = 1 << 20
QUERY = {"query": "machine learning"}


@pytest.fixture(scope="module")
def alpha_dir(store, tmp_path_factory):
    path = tmp_path_factory.mktemp("transport") / "alpha"
    store.save(path)
    return str(path)


@pytest.fixture(scope="module")
def alpha_snapshot(alpha_dir, tmp_path_factory):
    return corpus_snapshot(alpha_dir, tmp_path_factory.mktemp("snaps") / "alpha.snap")


@pytest.fixture(scope="module")
def cluster(alpha_dir, alpha_snapshot):
    """One replica behind a router, holding ``alpha`` warm."""
    with ClusterFixture(replicas=1, corpora={"alpha": (alpha_dir, alpha_snapshot)}) as fixture:
        yield fixture


def _address(url: str) -> tuple[str, int]:
    parts = urlsplit(url)
    return parts.hostname, parts.port


def _count_accepts(monkeypatch, server) -> list:
    """The connections ``server`` accepts from now on."""
    accepted = []
    original = server.get_request

    def get_request():
        connection, address = original()
        accepted.append(connection)
        return connection, address

    monkeypatch.setattr(server, "get_request", get_request)
    return accepted


def _send_ignoring_reset(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError:
        pass  # the server answered and closed before reading it all


def _raw_exchange(url, method, path, headers, body=b""):
    """Send one hand-built request; ``(response, body)`` as the client reads it.

    The request is written from a second thread, so a server that answers
    without reading the body is heard even if the write then fails.
    """
    host, port = _address(url)
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    with socket.create_connection((host, port), timeout=60) as sock:
        sender = threading.Thread(
            target=_send_ignoring_reset, args=(sock, head.encode() + b"\r\n" + body)
        )
        sender.start()
        response = http.client.HTTPResponse(sock)
        try:
            response.begin()
            payload = response.read()
        finally:
            response.close()
            sender.join(timeout=60)
    assert not sender.is_alive()
    return response, payload


def _server(cluster, role: str):
    return cluster.server if role == "router" else cluster.replicas[0].server


@pytest.mark.parametrize("role", ["replica", "router"])
def test_each_response_leaves_in_one_write_on_a_nodelay_socket(cluster, monkeypatch, role):
    server = _server(cluster, role)
    port = server.server_address[1]
    writes = []
    original = socket.socket.sendall

    def sendall(sock, data, *args):
        if sock.getsockname()[1] == port:  # a connection this server accepted
            nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            writes.append((sock, nodelay))
        return original(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", sendall)
    requests = [
        ("GET", "/healthz", None),
        ("POST", "/v1/corpora/alpha/query", QUERY),
        ("POST", "/v1/corpora/alpha/query", {"bogus": True}),  # 400, body read
        ("GET", "/v1/nope", None),  # 404 on a GET keeps the connection
        ("GET", "/v1/metrics", None),
    ]
    connection = http.client.HTTPConnection(*_address(server.url), timeout=120)
    try:
        for method, path, body in requests:
            data = json.dumps(body).encode() if body is not None else None
            connection.request(
                method, path, body=data, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            response.read()
            assert not response.will_close
    finally:
        connection.close()
    assert len(writes) == len(requests)
    assert len({sock for sock, _ in writes}) == 1  # all on one keep-alive socket
    assert all(nodelay == 1 for _, nodelay in writes)


OVERSIZED = b"x" * (BODY_LIMIT + 1)
JSON_TWO = {"Content-Type": "application/json", "Content-Length": "2"}


@pytest.mark.parametrize(
    "role, path, headers, body, status, code",
    [
        pytest.param(
            "replica", "/v1/corpora/alpha/query",
            {"Content-Length": str(len(OVERSIZED))}, OVERSIZED, 413, "payload_too_large",
            id="replica-oversized-body",
        ),
        pytest.param(
            "replica", "/v1/corpora/alpha/query", {}, b"", 400, "bad_request",
            id="replica-missing-content-length",
        ),
        pytest.param(
            "replica", "/v1/corpora/alpha/query", {"Content-Length": "ten"}, b"",
            400, "bad_request", id="replica-non-integer-content-length",
        ),
        pytest.param(
            "replica", "/v1/nope", JSON_TWO, b"{}", 404, "not_found",
            id="replica-unknown-post-route",
        ),
        pytest.param(
            "replica", "/v1/faults", JSON_TWO, b"{}", 404, "not_found",
            id="replica-hidden-fault-surface",
        ),
        pytest.param(
            "router", "/v1/corpora/alpha/query",
            {"Content-Length": str(len(OVERSIZED))}, OVERSIZED, 413, "payload_too_large",
            id="router-oversized-body",
        ),
        pytest.param(
            "router", "/v1/corpora/alpha/query", {"Content-Length": "ten"}, b"",
            400, "bad_request", id="router-non-integer-content-length",
        ),
        pytest.param(
            "router", "/v1/nope", JSON_TWO, b"{}", 404, "not_found",
            id="router-unknown-post-route",
        ),
    ],
)
def test_a_rejection_that_closes_the_connection_says_so(
    cluster, role, path, headers, body, status, code
):
    response, payload = _raw_exchange(
        _server(cluster, role).url, "POST", path, headers, body
    )
    doc = json.loads(payload)
    assert (response.status, doc["code"], doc["http_status"]) == (status, code, status)
    assert response.getheader("Connection") == "close"
    assert response.will_close
    if status == 413:
        # The router's cap answers like a replica's: 413, not 400.
        assert doc["limit_bytes"] == BODY_LIMIT


def test_http_0_9_request_gets_the_bare_body(cluster):
    with socket.create_connection(_address(cluster.replicas[0].url), timeout=30) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    assert json.loads(reply)["status"] == "ok"


def test_sequential_proxied_queries_share_one_upstream_connection(
    cluster, alpha_dir, alpha_snapshot, monkeypatch
):
    replica = cluster.replicas[0]
    accepted = _count_accepts(monkeypatch, replica.server)
    router = RouterApp(
        [replica.url], {"alpha": CorpusSpec("alpha", alpha_dir, alpha_snapshot)}
    )
    try:
        router.bootstrap()  # probe + attach (corpus_exists: already warm)
        for _ in range(10):
            status, _, _ = router.proxy(
                "alpha",
                "POST",
                "/v1/corpora/alpha/query",
                body=json.dumps(QUERY).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert status == 200
    finally:
        router.close()
    assert len(accepted) == 1


def test_will_close_response_is_never_pooled(cluster, monkeypatch):
    replica = cluster.replicas[0]
    accepted = _count_accepts(monkeypatch, replica.server)
    pool = UpstreamPool(replica.url)
    try:
        status, _, headers = pool.request("POST", "/v1/nope", body=b"{}", timeout=30)
        assert (status, headers["Connection"]) == (404, "close")
        assert pool._idle == []
        for _ in range(2):
            status, _, _ = pool.request("GET", "/healthz", timeout=30)
            assert status == 200
        assert len(pool._idle) == 1
    finally:
        pool.close()
    assert len(accepted) == 2  # the closed connection, then one kept alive


def test_replica_restarted_on_its_port_is_served_without_a_failure(
    alpha_dir, alpha_snapshot
):
    with ClusterFixture(replicas=1, corpora={"alpha": (alpha_dir, alpha_snapshot)}) as c:
        replica = c.replicas[0]
        status, before, _ = c.request("POST", "/v1/corpora/alpha/query", QUERY)
        assert status == 200

        # Same app, same port, new listening socket: the router's pooled
        # socket now leads to a closed connection.
        replica.kill()
        replica.server = RePaGerHTTPServer(_address(replica.url), replica.app)
        replica.thread = start_in_background(replica.server)

        status, after, _ = c.request("POST", "/v1/corpora/alpha/query", QUERY)
        assert status == 200
        assert after["payload"]["nodes"] == before["payload"]["nodes"]
        events = [record["event"] for record in c.router.events.tail(50)]
        assert "replica_down" not in events
        up = c.metrics()["repager_router_replica_up"]
        assert up[(("replica", replica.url),)] == 1.0


def test_killed_replica_never_answers_on_an_open_keep_alive_connection():
    replica = make_replica()
    try:
        connection = http.client.HTTPConnection(*_address(replica.url), timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close

            replica.kill()
            # EOF (RemoteDisconnected) or a reset, never a status line.
            with pytest.raises((ConnectionResetError, BrokenPipeError)):
                connection.request("GET", "/healthz")
                connection.getresponse()
        finally:
            connection.close()
    finally:
        replica.app.close(wait=False)


@pytest.mark.parametrize("method", ["PUT", "PATCH", "OPTIONS", "HEAD"])
@pytest.mark.parametrize("role", ["replica", "router"])
def test_a_method_without_a_handler_gets_a_taxonomy_501(cluster, role, method):
    response, payload = _raw_exchange(
        _server(cluster, role).url, method, "/v1/corpora", {"Content-Length": "0"}
    )
    assert response.status == 501
    assert response.getheader("Content-Type") == "application/json"
    assert response.getheader("X-Request-Id")
    assert response.getheader("Connection") == "close"
    if method == "HEAD":
        assert payload == b""
    else:
        doc = json.loads(payload)
        assert (doc["code"], doc["http_status"]) == ("not_implemented", 501)
        assert method in doc["detail"]


def _handler_threads() -> int:
    return sum(
        thread.name.endswith("(process_request_thread)")
        for thread in threading.enumerate()
    )


@pytest.mark.parametrize("role", ["replica", "router"])
def test_an_idle_keep_alive_connection_is_closed(cluster, monkeypatch, role):
    assert JSONHandler.timeout is not None  # shipped: idle sockets are closed
    monkeypatch.setattr(JSONHandler, "timeout", 0.2)
    baseline = _handler_threads()
    address = _address(_server(cluster, role).url)
    sockets = [socket.create_connection(address, timeout=10) for _ in range(10)]
    try:
        for sock in sockets:
            assert sock.recv(1) == b""  # EOF: the server closed it
        assert poll(lambda: _handler_threads() <= baseline)
    finally:
        for sock in sockets:
            sock.close()


@pytest.mark.parametrize("role", ["replica", "router"])
def test_a_peer_reset_is_not_reported_as_an_error(cluster, capsys, role):
    server = _server(cluster, role)
    capsys.readouterr()
    try:
        raise ConnectionResetError(104, "Connection reset by peer")
    except ConnectionResetError:
        server.handle_error(None, ("127.0.0.1", 1))
    assert capsys.readouterr().err == ""
    try:
        raise ValueError("a handler bug")
    except ValueError:
        server.handle_error(None, ("127.0.0.1", 1))
    assert "ValueError: a handler bug" in capsys.readouterr().err
