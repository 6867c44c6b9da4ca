import hashlib
import http.client
import os
import secrets
import urllib.request

import pytest

from octv.errors import ConflictError, NotFoundError, ProtocolError
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

    def test_sweep_removes_old_objects(self, tmp_path):
        store = FsObjectStore(tmp_path / "objects")
        store.put(make_key(1), b"old")
        old_path = tmp_path / "objects" / make_key(1).path
        past = os.path.getmtime(old_path) - 1000
        os.utime(old_path, (past, past))
        store.put(make_key(2), b"new")
        removed = store.sweep(max_age_s=500)
        assert removed == 1
        assert not store.contains(make_key(1))
        assert store.contains(make_key(2))

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
