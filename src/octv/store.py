"""Footage object store: filesystem backend, HTTP serving, and fetchers.

Objects are addressed by ``<16-hex video id>.<mp4|jpg>`` exactly as the
broadcast URL template names them, and are immutable once written. The
server never inspects or logs payload contents beyond their length; its
request log holds method, path, status and size only. Clients keep their
HTTP/1.1 connections open in one small pool shared by every request.
"""

import http.client
import os
import re
import secrets
import socket
import ssl
import threading
import urllib.error
import urllib.request
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit, urlunsplit

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
        self._lock = threading.Lock()

    def put(self, key: ObjectKey, data: bytes) -> None:
        with self._lock:
            if key.path in self._objects:
                raise ConflictError(f"object {key.path} already exists")
            self._objects[key.path] = bytes(data)

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

    def _file(self, key: ObjectKey) -> str:
        return os.path.join(self.root, key.path)

    def put(self, key: ObjectKey, data: bytes) -> None:
        path = self._file(key)
        # a temp name no other put shares; the link fails if any store made the object
        tmp = f"{path}.{secrets.token_hex(8)}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.link(tmp, path)
        except FileExistsError:
            raise ConflictError(f"object {key.path} already exists") from None
        finally:
            os.unlink(tmp)

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


class _StoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # a connection idle this long is closed, so a vanished client cannot hold its thread
    timeout = 30.0
    # a reply is buffered and flushed once, with Nagle's algorithm off: sent as headers
    # then body, the body waited for the client's delayed ACK (~40 ms per keep-alive GET)
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def _log(self, method: str, status: int, length: int) -> None:
        self.server.request_log.append(f"{method} {self.path} {status} {length}")

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass

    def _close_if_body(self) -> None:
        # a GET or HEAD body is never read: kept open, the connection would parse it
        # as the next request
        if self.headers.get("Content-Length", "0") != "0" or "Transfer-Encoding" in self.headers:
            self.close_connection = True

    def do_GET(self):
        self._close_if_body()
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._reply("GET", 400, b"bad request: expected /<16-hex-id>.<mp4|jpg>\n")
            return
        try:
            data = self.server.store.get(key)
        except NotFoundError:
            self._reply("GET", 404, b"not found\n")
            return
        self._reply("GET", 200, data, len(data), content_type="application/octet-stream")

    def do_PUT(self):
        # operator writes are restricted to loopback connections
        if self.client_address[0] not in ("127.0.0.1", "::1"):
            self._refuse(403, b"uploads restricted to operator loopback\n")
            return
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._refuse(400, b"bad request\n")
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None or not (raw_length.isascii() and raw_length.isdigit()):
            status = 411 if raw_length is None else 400
            self._refuse(status, b"Content-Length must be a decimal byte count\n")
            return
        length = int(raw_length)
        data = self.rfile.read(length)
        try:
            self.server.store.put(key, data)
        except ConflictError:
            self._reply("PUT", 409, b"object exists\n", length)
            return
        self._reply("PUT", 201, b"created\n", length)

    def do_HEAD(self):
        self._close_if_body()
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            status = 400
        else:
            status = 200 if self.server.store.contains(key) else 404
        self._log("HEAD", status, 0)
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _refuse(self, status: int, body: bytes) -> None:
        # the body stays unread: kept open, the connection would parse it as the next request
        self.close_connection = True
        self._reply("PUT", status, body)

    def _reply(self, method: str, status: int, body: bytes, logged_length: int = 0,
               content_type: str = "text/plain"):
        # logged before a byte goes out: a client that has its reply sees the entry
        self._log(method, status, logged_length)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _StoreHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server that keeps hold of its open connections."""

    def __init__(self, address, store):
        super().__init__(address, _StoreHandler)
        self.store = store
        self.request_log = []
        self._connections = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection; its handler thread then sees end of stream."""
        with self._connections_lock:
            open_now = list(self._connections)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass


class StoreServer:
    """Minimal HTTP front for an object store."""

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0):
        self._httpd = _StoreHTTPServer((host, port), store)
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

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        # kept-alive connections outlive the listening socket unless ended here
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)


# a reused connection that fails this way was closed by the server while idle
_IDLE_DROPPED = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class _ConnectionPool:
    """Keep-alive HTTP/1.1 connections shared by every http(s) request.

    Idle connections are kept per origin (scheme, host, port): at most
    ``PER_ORIGIN`` of them, for the ``ORIGINS`` origins used most
    recently. A reused connection that the server dropped while it sat
    idle is replaced by a fresh one, once. Redirects are not followed and
    proxy variables are not read.
    """

    ORIGINS = 8
    PER_ORIGIN = 4

    def __init__(self):
        self._idle: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.Lock()
        self._tls = None

    def request(self, method: str, url: str, body: bytes | None = None,
                timeout: float = 5.0) -> tuple[int, bytes]:
        """Send one request; returns the status and the body read whole."""
        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port)
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        conn = self._take(origin)
        try:
            response = None
            if conn is not None:
                try:
                    response = self._start(conn, method, target, body, timeout)
                except _IDLE_DROPPED:
                    conn.close()
            if response is None:
                conn = self._connect(origin, timeout)
                response = self._start(conn, method, target, body, timeout)
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            if conn is not None:
                conn.close()
            raise OctvError(f"{method} {url} failed: {exc!r}") from None
        if response.will_close:
            conn.close()
        else:
            self._give(origin, conn)
        return response.status, data

    @staticmethod
    def _start(conn, method, target, body, timeout) -> http.client.HTTPResponse:
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        conn.request(method, target, body=body)
        return conn.getresponse()

    def _connect(self, origin, timeout) -> http.client.HTTPConnection:
        scheme, host, port = origin
        if scheme == "https":
            if self._tls is None:
                self._tls = ssl.create_default_context()  # verifies certificate and host name
            return http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        return http.client.HTTPConnection(host, port, timeout=timeout)

    def _take(self, origin):
        with self._lock:
            idle = self._idle.get(origin)
            if idle:
                self._idle.move_to_end(origin)
                return idle.pop()
        return None

    def _give(self, origin, conn) -> None:
        with self._lock:
            idle = self._idle.setdefault(origin, [])
            self._idle.move_to_end(origin)
            dropped = []
            if len(idle) < self.PER_ORIGIN:
                idle.append(conn)
            else:
                dropped.append(conn)
            while len(self._idle) > self.ORIGINS:
                dropped += self._idle.popitem(last=False)[1]
        for conn in dropped:
            conn.close()


# one per process: ``fetch_url`` is a plain function that fetchers pass around
_POOL = _ConnectionPool()


class HttpStoreClient:
    """Camera-side store access over the HTTP interface."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: ObjectKey) -> str:
        return f"{self.base_url}/{key.path}"

    def put(self, key: ObjectKey, data: bytes) -> None:
        status, _ = _POOL.request("PUT", self._url(key), data, self.timeout)
        if status == 409:
            raise ConflictError(f"object {key.path} already exists")
        if not 200 <= status < 300:
            raise OctvError(f"upload failed with status {status}")

    def get(self, key: ObjectKey) -> bytes:
        return fetch_url(self._url(key), timeout=self.timeout)

    def contains(self, key: ObjectKey) -> bool:
        status, _ = _POOL.request("HEAD", self._url(key), timeout=self.timeout)
        if status == 404:
            return False
        if not 200 <= status < 300:
            raise OctvError(f"store returned status {status}")
        return True


def open_store(target: str):
    """Resolve a store target: http(s) URL or a local directory path."""
    if target.startswith("http://") or target.startswith("https://"):
        return HttpStoreClient(target)
    return FsObjectStore(target)


def fetch_url(url: str, timeout: float = 5.0) -> bytes:
    """GET a footage URL (http, https or file scheme); http(s) reuses pooled connections."""
    scheme = urlsplit(url).scheme
    if scheme == "file":
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.read()
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, FileNotFoundError):
                raise NotFoundError(f"footage not found at {url}") from None
            raise OctvError(f"fetch failed: {exc.reason}") from None
    if scheme not in ("http", "https"):
        raise ProtocolError(f"unsupported URL scheme {scheme!r}")
    status, data = _POOL.request("GET", url, timeout=timeout)
    if status == 404:
        raise NotFoundError(f"footage not found at {url}")
    if status != 200:
        raise OctvError(f"fetch failed with status {status}")
    return data


class LocalStoreFetcher:
    """Fetcher resolving URLs directly against an in-process store."""

    def __init__(self, store):
        self.store = store

    def __call__(self, url: str) -> bytes:
        tail = urlsplit(url).path.rsplit("/", 1)[-1]
        return self.store.get(ObjectKey.from_path(tail))
