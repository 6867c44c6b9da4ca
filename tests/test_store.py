import hashlib
import http.client
import os
import secrets
import socket
import ssl
import statistics
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from octv import store as store_module
from octv.errors import ConflictError, NotFoundError, OctvError, ProtocolError
from octv.store import (
    FsObjectStore,
    HttpStoreClient,
    LocalStoreFetcher,
    MemoryObjectStore,
    ObjectKey,
    StoreServer,
    fetch_url,
    open_store,
)


def make_key(n: int = 0, extension: str = "mp4") -> ObjectKey:
    return ObjectKey(n.to_bytes(8, "big"), extension)


class TestObjectKey:
    def test_path_layout(self):
        key = ObjectKey(bytes.fromhex("0102030405060708"), "mp4")
        assert key.path == "0102030405060708.mp4"

    def test_from_path(self):
        key = ObjectKey.from_path("0102030405060708.jpg")
        assert key.video_id == bytes.fromhex("0102030405060708")
        assert key.extension == "jpg"

    @pytest.mark.parametrize("bad", ["zz.mp4", "0102030405060708.avi", "short.mp4", "../x.mp4"])
    def test_bad_paths(self, bad):
        with pytest.raises(ProtocolError):
            ObjectKey.from_path(bad)


@pytest.mark.parametrize("make_store", [
    lambda tmp: MemoryObjectStore(),
    lambda tmp: FsObjectStore(tmp / "objects"),
])
class TestStoreContract:
    def test_put_get_roundtrip(self, tmp_path, make_store):
        store = make_store(tmp_path)
        data = secrets.token_bytes(500)
        store.put(make_key(1), data)
        assert store.get(make_key(1)) == data

    def test_duplicate_put_conflict(self, tmp_path, make_store):
        store = make_store(tmp_path)
        store.put(make_key(1), b"first")
        with pytest.raises(ConflictError):
            store.put(make_key(1), b"second")
        assert store.get(make_key(1)) == b"first"

    def test_missing_not_found(self, tmp_path, make_store):
        store = make_store(tmp_path)
        with pytest.raises(NotFoundError):
            store.get(make_key(9))
        assert not store.contains(make_key(9))


class TestFsStore:
    def test_on_disk_file_name(self, tmp_path):
        store = FsObjectStore(tmp_path / "objects")
        store.put(ObjectKey(bytes.fromhex("0102030405060708")), b"data")
        assert (tmp_path / "objects" / "0102030405060708.mp4").read_bytes() == b"data"

    def test_content_fidelity_hundred_objects(self, tmp_path):
        store = FsObjectStore(tmp_path / "objects")
        digests = {}
        for i in range(100):
            data = secrets.token_bytes(64 + i)
            store.put(make_key(i), data)
            digests[i] = hashlib.sha256(data).hexdigest()
        for i in range(100):
            assert hashlib.sha256(store.get(make_key(i))).hexdigest() == digests[i]

    def test_put_write_once_across_stores(self, tmp_path, monkeypatch):
        first, second = FsObjectStore(tmp_path), FsObjectStore(tmp_path)
        key = make_key(1)
        raced = []

        def race(publish):
            # the second store's put lands after the first's temp write, before its publish
            def publish_after_second(src, dst):
                if not raced:
                    raced.append(True)
                    second.put(key, b"second")
                return publish(src, dst)
            return publish_after_second

        monkeypatch.setattr(os, "link", race(os.link))
        monkeypatch.setattr(os, "replace", race(os.replace))
        with pytest.raises(ConflictError):
            first.put(key, b"first")
        assert raced
        assert first.get(key) == second.get(key) == b"second"
        assert os.listdir(tmp_path) == [key.path]


@pytest.fixture
def server(tmp_path):
    store = FsObjectStore(tmp_path / "objects")
    server = StoreServer(store, host="127.0.0.1", port=0)
    server.start()
    yield server, store
    server.stop()


class TestHttpServer:
    def test_get_roundtrip(self, server):
        server, store = server
        data = secrets.token_bytes(256)
        store.put(make_key(1), data)
        with urllib.request.urlopen(f"{server.base_url()}/{make_key(1).path}") as response:
            assert response.read() == data

    def test_get_unknown_is_404(self, server):
        server, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.base_url()}/{make_key(5).path}")
        assert excinfo.value.code == 404

    def test_malformed_path_is_400(self, server):
        server, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.base_url()}/zz.mp4")
        assert excinfo.value.code == 400

    def test_put_from_loopback_then_get(self, server):
        server, _ = server
        client = HttpStoreClient(server.base_url())
        data = secrets.token_bytes(128)
        client.put(make_key(2), data)
        assert client.contains(make_key(2))
        assert client.get(make_key(2)) == data

    def test_put_conflict_is_409(self, server):
        server, _ = server
        client = HttpStoreClient(server.base_url())
        client.put(make_key(3), b"a")
        with pytest.raises(ConflictError):
            client.put(make_key(3), b"b")

    @pytest.mark.parametrize("length, status", [(None, 411), ("-1", 400), ("abc", 400)])
    def test_put_bad_content_length_rejected(self, server, length, status):
        server, store = server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.putrequest("PUT", f"/{make_key(6).path}")
            if length is not None:
                conn.putheader("Content-Length", length)
            conn.endheaders(b"payload")
            assert conn.getresponse().status == status
        finally:
            conn.close()
        assert store.keys() == []
        assert server.request_log == [f"PUT /{make_key(6).path} {status} 0"]

    def test_request_log_has_no_payload_bytes(self, server):
        server, _ = server
        client = HttpStoreClient(server.base_url())
        payload = secrets.token_bytes(64)
        client.put(make_key(4), payload)
        client.get(make_key(4))
        log_text = "\n".join(server.request_log)
        assert payload.hex() not in log_text
        assert f"PUT /{make_key(4).path} 201 64" in server.request_log
        assert f"GET /{make_key(4).path} 200 64" in server.request_log


class TestFetchers:
    def test_fetch_file_scheme(self, tmp_path):
        store = FsObjectStore(tmp_path / "objects")
        data = secrets.token_bytes(99)
        store.put(make_key(1), data)
        url = f"file://{tmp_path}/objects/{make_key(1).path}"
        assert fetch_url(url) == data

    def test_fetch_file_missing_is_not_found(self, tmp_path):
        with pytest.raises(NotFoundError):
            fetch_url(f"file://{tmp_path}/{make_key(2).path}")

    def test_fetch_http_not_found(self, server):
        server, _ = server
        with pytest.raises(NotFoundError):
            fetch_url(f"{server.base_url()}/{make_key(7).path}")

    def test_unsupported_scheme(self):
        with pytest.raises(ProtocolError):
            fetch_url("ftp://example.com/0102030405060708.mp4")

    def test_local_fetcher(self):
        store = MemoryObjectStore()
        data = b"segment bytes"
        store.put(make_key(1), data)
        fetcher = LocalStoreFetcher(store)
        assert fetcher(f"https://anything.example/{make_key(1).path}") == data

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(str(tmp_path / "x")), FsObjectStore)
        assert isinstance(open_store("http://127.0.0.1:1/"), HttpStoreClient)


def closed_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def pool(monkeypatch):
    """A fresh connection pool for one test, so other tests' servers do not count."""
    fresh = store_module._ConnectionPool()
    monkeypatch.setattr(store_module, "_POOL", fresh)
    yield fresh
    for idle in fresh._idle.values():
        for conn in idle:
            conn.close()


class _FixedStatusHandler(BaseHTTPRequestHandler):
    """Answers /<status>/... with that status and a Location of /200/<rest>."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _answer(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.paths.append(self.path)
        _, status, rest = self.path.split("/", 2)
        self.send_response(int(status))
        self.send_header("Location", f"/200/{rest}")
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_PUT = do_HEAD = _answer


@pytest.fixture(scope="module")
def fixed_status():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FixedStatusHandler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


class TestPooledConnections:
    def test_keep_alive_get_is_fast(self, server):
        server, store = server
        store.put(make_key(1), secrets.token_bytes(32 * 1024))
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            took = []
            for _ in range(10):
                began = time.perf_counter()
                conn.request("GET", f"/{make_key(1).path}")
                response = conn.getresponse()
                assert len(response.read()) == 32 * 1024
                took.append(time.perf_counter() - began)
        finally:
            conn.close()
        assert statistics.median(took) < 0.010

    def test_requests_share_one_connection(self, server, pool):
        server, store = server
        store.put(make_key(1), b"footage")
        client = HttpStoreClient(server.base_url())
        client.put(make_key(2), b"more")
        assert client.contains(make_key(2))
        for _ in range(3):
            assert fetch_url(f"{server.base_url()}/{make_key(1).path}") == b"footage"
            assert client.get(make_key(2)) == b"more"
        assert len(server._httpd._connections) == 1
        assert [len(idle) for idle in pool._idle.values()] == [1]

    def test_fetch_after_stop_is_error(self):
        store = MemoryObjectStore()
        store.put(make_key(1), b"hi")
        server = StoreServer(store)
        server.start()
        url = f"{server.base_url()}/{make_key(1).path}"
        assert fetch_url(url) == b"hi"
        server.stop()
        with pytest.raises(OctvError) as excinfo:
            fetch_url(url)
        assert not isinstance(excinfo.value, NotFoundError)

    def test_idle_timeout_then_reconnect(self, server, pool, monkeypatch):
        monkeypatch.setattr(store_module._StoreHandler, "timeout", 0.2)
        server, store = server
        store.put(make_key(1), b"hi")
        url = f"{server.base_url()}/{make_key(1).path}"
        connects = []
        connect = pool._connect
        monkeypatch.setattr(pool, "_connect", lambda *a: connects.append(a) or connect(*a))
        assert fetch_url(url) == b"hi"
        deadline = time.monotonic() + 5
        while server._httpd._connections and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not server._httpd._connections  # the server closed the idle connection
        assert fetch_url(url) == b"hi"
        assert len(connects) == 2

    def test_pool_stays_bounded(self, pool):
        servers = [StoreServer(MemoryObjectStore()) for _ in range(50)]
        for server in servers:
            server.start()
            with pytest.raises(NotFoundError):
                fetch_url(f"{server.base_url()}/{make_key(1).path}")
        with ThreadPoolExecutor(max_workers=10) as stopping:
            list(stopping.map(StoreServer.stop, servers))
        assert len(pool._idle) == pool.ORIGINS
        assert all(len(idle) <= pool.PER_ORIGIN for idle in pool._idle.values())
        kept = {port for _, _, port in pool._idle}
        assert kept == {server.port for server in servers[-pool.ORIGINS:]}

    def test_https_verifies_certificates(self, pool):
        conn = pool._connect(("https", "files.example", None), 1.0)
        assert isinstance(conn, http.client.HTTPSConnection)
        assert conn._context.verify_mode == ssl.CERT_REQUIRED
        assert conn._context.check_hostname


class TestErrorMapping:
    def test_not_found(self, server):
        server, _ = server
        client = HttpStoreClient(server.base_url())
        with pytest.raises(NotFoundError):
            client.get(make_key(1))
        with pytest.raises(NotFoundError):
            fetch_url(f"{server.base_url()}/{make_key(1).path}")
        assert client.contains(make_key(1)) is False

    @pytest.mark.parametrize("call", ["get", "put", "contains", "fetch_url"])
    def test_unreachable(self, call):
        base = f"http://127.0.0.1:{closed_port()}"
        client = HttpStoreClient(base, timeout=2.0)
        calls = {
            "get": lambda: client.get(make_key(1)),
            "put": lambda: client.put(make_key(1), b"data"),
            "contains": lambda: client.contains(make_key(1)),
            "fetch_url": lambda: fetch_url(f"{base}/{make_key(1).path}"),
        }
        with pytest.raises(OctvError) as excinfo:
            calls[call]()
        assert type(excinfo.value) is OctvError

    @pytest.mark.parametrize("status", [302, 307, 500])
    @pytest.mark.parametrize("call", ["get", "put", "contains", "fetch_url"])
    def test_other_status_is_error_and_redirects_are_not_followed(
            self, fixed_status, status, call):
        fixed_status.paths = []
        base = f"http://127.0.0.1:{fixed_status.server_address[1]}/{status}"
        client = HttpStoreClient(base)
        calls = {
            "get": lambda: client.get(make_key(1)),
            "put": lambda: client.put(make_key(1), b"data"),
            "contains": lambda: client.contains(make_key(1)),
            "fetch_url": lambda: fetch_url(f"{base}/{make_key(1).path}"),
        }
        with pytest.raises(OctvError) as excinfo:
            calls[call]()
        assert type(excinfo.value) is OctvError
        assert fixed_status.paths == [f"/{status}/{make_key(1).path}"]  # Location not followed


INNER_PUT = (f"PUT /{make_key(0xFF).path} HTTP/1.1\r\nHost: store\r\n"
             "Content-Length: 4\r\n\r\nevil").encode()


class TestRequestSmuggling:
    @pytest.mark.parametrize("outer, status", [
        ("PUT /not-a-key HTTP/1.1", 400),
        (f"GET /{make_key(1).path} HTTP/1.1", 404),
        (f"HEAD /{make_key(1).path} HTTP/1.1", 404),
    ])
    def test_unread_body_is_not_a_request(self, server, outer, status):
        """A body the store does not read must not run as a second request."""
        server, store = server
        head = f"{outer}\r\nHost: store\r\nContent-Length: {len(INNER_PUT)}\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(head.encode() + INNER_PUT)
            replies = b""
            while chunk := sock.recv(65536):  # the store closes the connection
                replies += chunk
        assert replies.startswith(f"HTTP/1.1 {status} ".encode())
        assert replies.count(b"HTTP/1.1 ") == 1
        assert store.keys() == []
        assert len(server.request_log) == 1
