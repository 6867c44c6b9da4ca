"""Footage object store: filesystem backend, HTTP serving, and fetchers.

Objects are addressed by ``<16-hex video id>.<mp4|jpg>`` exactly as the
broadcast URL template names them, and are immutable once written. The
server never inspects or logs payload contents beyond their length; its
request log holds method, path, status and size only.
"""

import os
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .errors import ConflictError, NotFoundError, OctvError, ProtocolError

_OBJECT_RE = re.compile(r"^([0-9a-f]{16})\.(mp4|jpg)$")


class ObjectKey:
    """Storage address: 8-byte video id plus file extension."""

    __slots__ = ("video_id", "extension")

    def __init__(self, video_id: bytes, extension: str = "mp4"):
        if len(video_id) != 8:
            raise ValueError(f"video_id must be 8 bytes, got {len(video_id)}")
        if extension not in ("mp4", "jpg"):
            raise ValueError(f"extension must be mp4 or jpg, got {extension!r}")
        self.video_id = video_id
        self.extension = extension

    @property
    def path(self) -> str:
        return f"{self.video_id.hex()}.{self.extension}"

    @classmethod
    def from_path(cls, path: str) -> "ObjectKey":
        match = _OBJECT_RE.match(path)
        if not match:
            raise ProtocolError(f"not a valid object path: {path!r}")
        return cls(bytes.fromhex(match.group(1)), match.group(2))

    def __eq__(self, other):
        return isinstance(other, ObjectKey) and self.path == other.path

    def __hash__(self):
        return hash(self.path)

    def __repr__(self):
        return f"ObjectKey({self.path})"


class MemoryObjectStore:
    """In-memory store with the same contract as the filesystem one."""

    def __init__(self):
        self._objects: dict[str, bytes] = {}
        self._written_at: dict[str, float] = {}
        self._lock = threading.Lock()

    def put(self, key: ObjectKey, data: bytes) -> None:
        with self._lock:
            if key.path in self._objects:
                raise ConflictError(f"object {key.path} already exists")
            self._objects[key.path] = bytes(data)
            self._written_at[key.path] = time.time()

    def get(self, key: ObjectKey) -> bytes:
        try:
            return self._objects[key.path]
        except KeyError:
            raise NotFoundError(f"object {key.path} not found") from None

    def contains(self, key: ObjectKey) -> bool:
        return key.path in self._objects

    def keys(self) -> list[ObjectKey]:
        return [ObjectKey.from_path(p) for p in sorted(self._objects)]


class FsObjectStore:
    """One file per object under a root directory."""

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    def _file(self, key: ObjectKey) -> str:
        return os.path.join(self.root, key.path)

    def put(self, key: ObjectKey, data: bytes) -> None:
        path = self._file(key)
        with self._lock:
            if os.path.exists(path):
                raise ConflictError(f"object {key.path} already exists")
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)

    def get(self, key: ObjectKey) -> bytes:
        try:
            with open(self._file(key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise NotFoundError(f"object {key.path} not found") from None

    def contains(self, key: ObjectKey) -> bool:
        return os.path.exists(self._file(key))

    def keys(self) -> list[ObjectKey]:
        keys = []
        for name in sorted(os.listdir(self.root)):
            if _OBJECT_RE.match(name):
                keys.append(ObjectKey.from_path(name))
        return keys

    def sweep(self, max_age_s: float, now: float | None = None) -> int:
        """Delete objects older than ``max_age_s``. Returns count removed."""
        now = time.time() if now is None else now
        removed = 0
        for key in self.keys():
            path = self._file(key)
            if now - os.path.getmtime(path) > max_age_s:
                os.unlink(path)
                removed += 1
        return removed


class _StoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _log(self, method: str, status: int, length: int) -> None:
        self.server.request_log.append(f"{method} {self.path} {status} {length}")

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass

    def do_GET(self):
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._reply(400, b"bad request: expected /<16-hex-id>.<mp4|jpg>\n")
            self._log("GET", 400, 0)
            return
        try:
            data = self.server.store.get(key)
        except NotFoundError:
            self._reply(404, b"not found\n")
            self._log("GET", 404, 0)
            return
        self._reply(200, data, content_type="application/octet-stream")
        self._log("GET", 200, len(data))

    def do_PUT(self):
        # operator writes are restricted to loopback connections
        if self.client_address[0] not in ("127.0.0.1", "::1"):
            self._reply(403, b"uploads restricted to operator loopback\n")
            self._log("PUT", 403, 0)
            return
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._reply(400, b"bad request\n")
            self._log("PUT", 400, 0)
            return
        length = int(self.headers.get("Content-Length", "0"))
        data = self.rfile.read(length)
        try:
            self.server.store.put(key, data)
        except ConflictError:
            self._reply(409, b"object exists\n")
            self._log("PUT", 409, length)
            return
        self._reply(201, b"created\n")
        self._log("PUT", 201, length)

    def do_HEAD(self):
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.end_headers()
            self._log("HEAD", 400, 0)
            return
        exists = self.server.store.contains(key)
        self.send_response(200 if exists else 404)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self._log("HEAD", 200 if exists else 404, 0)

    def _reply(self, status: int, body: bytes, content_type: str = "text/plain"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class StoreServer:
    """Minimal HTTP front for an object store."""

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _StoreHandler)
        self._httpd.store = store
        self._httpd.request_log = []
        self._thread = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def request_log(self) -> list[str]:
        return self._httpd.request_log

    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class HttpStoreClient:
    """Camera-side store access over the HTTP interface."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: ObjectKey) -> str:
        return f"{self.base_url}/{key.path}"

    def put(self, key: ObjectKey, data: bytes) -> None:
        request = urllib.request.Request(self._url(key), data=data, method="PUT")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 409:
                raise ConflictError(f"object {key.path} already exists") from None
            raise OctvError(f"upload failed with status {exc.code}") from None
        except urllib.error.URLError as exc:
            raise OctvError(f"store unreachable: {exc.reason}") from None

    def get(self, key: ObjectKey) -> bytes:
        return fetch_url(self._url(key), timeout=self.timeout)

    def contains(self, key: ObjectKey) -> bool:
        request = urllib.request.Request(self._url(key), method="HEAD")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                return True
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return False
            raise OctvError(f"store returned status {exc.code}") from None
        except urllib.error.URLError as exc:
            raise OctvError(f"store unreachable: {exc.reason}") from None


def open_store(target: str):
    """Resolve a store target: http(s) URL or a local directory path."""
    if target.startswith("http://") or target.startswith("https://"):
        return HttpStoreClient(target)
    return FsObjectStore(target)


def fetch_url(url: str, timeout: float = 5.0) -> bytes:
    """GET a footage URL (http, https or file scheme)."""
    scheme = urlsplit(url).scheme
    if scheme not in ("http", "https", "file"):
        raise ProtocolError(f"unsupported URL scheme {scheme!r}")
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFoundError(f"footage not found at {url}") from None
        raise OctvError(f"fetch failed with status {exc.code}") from None
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, FileNotFoundError):
            raise NotFoundError(f"footage not found at {url}") from None
        raise OctvError(f"fetch failed: {exc.reason}") from None


class LocalStoreFetcher:
    """Fetcher resolving URLs directly against an in-process store."""

    def __init__(self, store):
        self.store = store

    def __call__(self, url: str) -> bytes:
        tail = urlsplit(url).path.rsplit("/", 1)[-1]
        return self.store.get(ObjectKey.from_path(tail))
