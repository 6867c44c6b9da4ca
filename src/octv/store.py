"""Footage object store: filesystem backend, HTTP serving, and fetchers.

Objects are addressed by ``<16-hex video id>.<mp4|jpg>`` exactly as the
broadcast URL template names them, and are immutable once written. The
server never inspects or logs payload contents beyond their length; its
request log holds method, path, status and size only. Clients keep their
HTTP/1.1 connections open in one small pool shared by every request. Both
ends frame HTTP/1.1 themselves: one header reader, with the stdlib's line
and count limits, parses request and reply heads alike. The store serves
each connection from its own request loop and writes every reply head and
body with one gathered send; each head carries ``Date``, ``Content-Type``,
``Content-Length`` and, when the store then closes, ``Connection: close``.
"""

import atexit
import io
import os
import re
import secrets
import socket
import socketserver
import ssl
import threading
import time
from collections import OrderedDict
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import SplitResult, unquote, urlsplit

from .errors import ConflictError, NotFoundError, OctvError, ProtocolError
from .protocol import FOOTAGE_EXTENSIONS, VIDEO_ID_LEN

_OBJECT_RE = re.compile(rf"^([0-9a-f]{{{2 * VIDEO_ID_LEN}}})\.({'|'.join(FOOTAGE_EXTENSIONS)})$")


class ObjectKey:
    """Storage address: 8-byte video id plus file extension."""

    __slots__ = ("video_id", "extension")

    def __init__(self, video_id: bytes, extension: str = "mp4"):
        if len(video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes, got {len(video_id)}")
        if extension not in FOOTAGE_EXTENSIONS:
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


_MAX_LINE = 65536  # http.client's limits: bytes in one head line,
_MAX_HEADERS = 100  # and lines in one head, its blank end line counted
_PIECE = 1 << 20  # bodies are read in pieces this size, so a claimed length allocates nothing
# a client's read buffer: a 32 KiB catch-up segment and its reply head fit, so a reply
# that has arrived whole is read in one receive
_REPLY_BUFFER = 64 * 1024
# a field line: ``name:``, then the value to the line's end. Its trailing CR and blanks
# are stripped after the match: a lazy value would retry the tail at every character
_FIELD = re.compile(r"([^\s:]+):[ \t]*(.*)\n")
# a chunk's size line (RFC 9112 7.1): hex digits only, then an extension that is not read
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;.*)?\r?\n")
_YIELD = getattr(os, "sched_yield", None)  # not on Windows


class _HeadError(ValueError):
    """A message head that is refused; ``status`` is what the store answers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_headers(reader) -> dict[str, str]:
    """Read header fields up to the blank line; values by lower-cased name.

    The first of a repeated field counts. A repeated Content-Length, a
    line that is not ``name: value`` (RFC 9112 §5.1 puts no whitespace
    before the colon) and a head cut short by end of stream are errors.
    An obs-fold line continues the previous value.
    """
    headers = {}
    last = None
    readline = reader.readline
    for _ in range(_MAX_HEADERS):
        line = readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _HeadError(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return headers
        field = _FIELD.fullmatch(str(line, "latin-1"))
        if field is None:  # no ending newline, an obs-fold line, or not a field
            if not line.endswith(b"\n"):
                raise _HeadError(400, "Head cut short")
            text = str(line, "latin-1").rstrip("\r\n")
            if last is None or text[:1] not in (" ", "\t"):
                raise _HeadError(400, f"Bad header line ({text[:80]!r})")
            headers[last] = f"{headers[last]} {text.strip()}".lstrip()
            continue
        name, value = field.groups()
        name = name.lower()
        if name not in headers:
            headers[name] = value.rstrip("\r").rstrip(" \t")
            last = name
        elif name == "content-length":
            raise _HeadError(400, "Repeated Content-Length")
        else:
            last = None
    raise _HeadError(431, "Too many headers")


def _read_body(reader, length: int, buffered: int) -> bytes:
    """The next ``length`` bytes, fewer only at end of stream.

    A body longer than the reader's buffer, ``buffered`` bytes, is likely
    still being sent. When its sender is a thread sharing this CPU (a
    store and its client in one process), yielding first lets it finish,
    and the body is read whole. A reader that instead sleeps on each piece
    is woken while the sender still runs, and the scheduler then tends to
    part the two threads onto separate CPUs, where every later hand-off is
    a cross-CPU wake-up. With nothing else runnable here, the yield
    returns at once.
    """
    if length > buffered and _YIELD is not None:
        _YIELD()
    pieces = []
    while length > 0:
        piece = reader.read(min(length, _PIECE))
        if not piece:
            break
        pieces.append(piece)
        length -= len(piece)
    return b"".join(pieces)


_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_CLOSE = "Connection: close\r\n"
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _StoreHandler(socketserver.StreamRequestHandler):
    """One connection: its requests are read and answered in turn until it closes."""

    # a connection idle this long is closed, so a vanished client cannot hold its thread
    timeout = 30.0
    # a reply goes out in one gathered send, with Nagle's algorithm off: sent as headers
    # then body, the body waited for the client's delayed ACK (~40 ms per keep-alive GET)
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        # the client went away, or sat idle or stalled past ``timeout``: closed quietly
        except (ConnectionError, TimeoutError):
            pass

    def _serve_one(self) -> bool:
        """Read and answer one request; False once the connection is to close.

        The request line is ``METHOD TARGET HTTP/<major>.<minor>``, three
        words; anything else is answered 400 and the connection closed.
        """
        line = self.rfile.readline(_MAX_LINE + 1)
        words = str(line, "iso-8859-1").split()
        if not words:  # end of stream, or a line of whitespace: closed without a reply
            return False
        self.command = None
        self.close_connection = True
        try:
            if len(line) > _MAX_LINE:
                raise _HeadError(414, "Request-URI Too Long")
            version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
            if version is None:
                raise _HeadError(400, "Bad request line")
            if int(version[1]) >= 2:
                raise _HeadError(505, f"Invalid HTTP version ({words[2][5:]})")
            self.command, self.path = words[:2]
            if self.path.startswith("//"):  # gh-87389: never an absolute URI without a scheme
                self.path = "/" + self.path.lstrip("/")
            self.headers = _read_headers(self.rfile)
            method = self._METHODS.get(self.command)
            if method is None:
                raise _HeadError(501, f"Unsupported method ({self.command!r})")
        except _HeadError as err:  # answered unlogged
            self._send(err.status, f"{err}\n".encode())
            return False
        http11 = (int(version[1]), int(version[2])) >= (1, 1)
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (not http11 and connection != "keep-alive")
        if http11 and self.headers.get("expect", "").lower() == "100-continue":
            # the client holds the body back until it sees this
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        method(self)
        return not self.close_connection

    def _close_if_body(self) -> None:
        # a GET or HEAD body is never read: kept open, the connection would parse it
        # as the next request
        if self.headers.get("content-length", "0") != "0" or "transfer-encoding" in self.headers:
            self.close_connection = True

    def _get(self):
        self._close_if_body()
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._reply(400, b"bad request: expected /<16-hex-id>.<mp4|jpg>\n")
            return
        try:
            data = self.server.store.get(key)
        except NotFoundError:
            self._reply(404, b"not found\n")
            return
        self._reply(200, data, len(data))

    def _put(self):
        # operator writes are restricted to loopback connections
        if self.client_address[0] not in ("127.0.0.1", "::1"):
            self._refuse(403, b"uploads restricted to operator loopback\n")
            return
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            self._refuse(400, b"bad request\n")
            return
        # a coded body read by its Content-Length would leave a tail to be parsed as the
        # next request (RFC 9112 §6.1)
        if "transfer-encoding" in self.headers:
            self._refuse(501, b"Transfer-Encoding is not accepted\n")
            return
        raw_length = self.headers.get("content-length")
        if raw_length is None or not (raw_length.isascii() and raw_length.isdigit()):
            status = 411 if raw_length is None else 400
            self._refuse(status, b"Content-Length must be a decimal byte count\n")
            return
        length = int(raw_length)
        data = _read_body(self.rfile, length, io.DEFAULT_BUFFER_SIZE)  # rfile's buffer size
        if len(data) < length:  # the client went away mid-upload: store nothing
            self._refuse(400, b"body shorter than Content-Length\n")
            return
        try:
            self.server.store.put(key, data)
        except ConflictError:
            self._reply(409, b"object exists\n", length)
            return
        self._reply(201, b"created\n", length)

    def _head(self):
        self._close_if_body()
        try:
            key = ObjectKey.from_path(self.path.lstrip("/"))
        except ProtocolError:
            status = 400
        else:
            status = 200 if self.server.store.contains(key) else 404
        self._reply(status, b"")

    _METHODS = {"GET": _get, "PUT": _put, "HEAD": _head}

    def _refuse(self, status: int, body: bytes) -> None:
        # the body stays unread: kept open, the connection would parse it as the next request
        self.close_connection = True
        self._reply(status, body)

    def _reply(self, status: int, body: bytes, logged_length: int = 0) -> None:
        # logged before a byte goes out: a client that has its reply sees the entry
        self.server.request_log.append(f"{self.command} {self.path} {status} {logged_length}")
        self._send(status, body)

    def _send(self, status: int, body: bytes) -> None:
        """Write one reply: its head as one bytes value, sent with the body in one
        gathered send. A HEAD reply has no body and a Content-Length of 0."""
        if self.command == "HEAD":
            body = b""
        head = (f"{_STATUS_LINES[status]}Date: {self.server.date()}\r\n"
                f"Content-Type: {'application/octet-stream' if status == 200 else 'text/plain'}"
                f"\r\nContent-Length: {len(body)}\r\n"
                f"{_CLOSE if self.close_connection else ''}\r\n").encode("ascii")
        sock = self.connection
        sent = sock.sendmsg((head, body)) - len(head)
        if sent < 0:  # part of the head is still to go: its last -sent bytes
            sock.sendall(head[sent:])
            sent = 0
        if sent < len(body):  # the rest from a view, so a large body is never copied
            sock.sendall(memoryview(body)[sent:])


class StoreServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP/1.x front for an object store that keeps hold of its open connections."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _StoreHandler)
        self.store = store
        self.request_log = []
        self._connections = set()
        self._connections_lock = threading.Lock()
        self._date = (0, "")  # a second and its IMF-fixdate
        self._thread = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def date(self) -> str:
        """Now as an HTTP ``Date`` value (RFC 9110 §6.6.1), formatted at most once a second."""
        second = int(time.time())
        date = self._date
        if date[0] != second:
            date = self._date = (second, formatdate(second, usegmt=True))
        return date[1]

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serving, then end every open connection; its handler sees end of stream."""
        thread, self._thread = self._thread, None
        if thread is not None:
            try:  # wakes serve_forever's poll now; shutdown() alone waits out its 0.5 s
                self.socket.shutdown(socket.SHUT_RDWR)
            except OSError:  # a platform that cannot shut a listening socket
                pass
            self.shutdown()
        self.server_close()
        # kept-alive connections outlive the listening socket unless ended here
        with self._connections_lock:
            open_now = list(self._connections)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass
        if thread is not None:
            thread.join(timeout=5)


class _Dropped(ConnectionError):
    """The server closed the connection before a byte of its reply."""


_BAD_TARGET = re.compile(r"[^\x21-\x7e]")


class _Connection:
    """One HTTP/1.1 client connection: a socket and its buffered reader."""

    def __init__(self, origin: tuple, timeout: float, tls: ssl.SSLContext | None):
        _, host, port = origin
        sock = socket.create_connection((host, port or (443 if tls else 80)), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.reader = sock.makefile("rb", _REPLY_BUFFER)
        name = host if host.isascii() else host.encode("idna").decode()
        name = f"[{name}]" if ":" in name else name
        self.host = name if port is None else f"{name}:{port}"

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, method: str, target: str, body: bytes | None,
                 timeout: float) -> tuple[int, bytes, bool]:
        """Send one request and read its reply whole.

        Returns the status, the body, and whether the connection can carry
        another request. Raises ``_Dropped`` if the server had closed it.
        """
        head = f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\nAccept-Encoding: identity\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        head = (head + "\r\n").encode("ascii")
        if timeout != self.sock.gettimeout():  # set at connect; a request may ask for another
            self.sock.settimeout(timeout)
        try:
            self.sock.sendall(head)
            if body:
                self.sock.sendall(body)
            line = self.reader.readline(_MAX_LINE + 1)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _Dropped(str(exc)) from None
        if not line:
            raise _Dropped("closed before the status line")
        while True:
            parts = line.split(None, 2)
            if (len(line) > _MAX_LINE or len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                    or len(parts[1]) != 3 or not parts[1].isdigit()):
                raise ValueError(f"bad status line {line[:80]!r}")
            status = int(parts[1])
            headers = _read_headers(self.reader)
            if not 100 <= status < 200:
                break
            line = self.reader.readline(_MAX_LINE + 1)  # after an interim reply, the real one
        connection = headers.get("connection", "").lower()
        if parts[0] == b"HTTP/1.0":
            reusable = "keep-alive" in connection
        else:
            reusable = "close" not in connection
        if method == "HEAD" or status in (204, 304):
            return status, b"", reusable
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return status, self._read_chunked(), reusable
        length = headers.get("content-length")
        if length is None:
            return status, self.reader.read(), False  # the body ends where the connection does
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        data = _read_body(self.reader, int(length), _REPLY_BUFFER)
        if len(data) < int(length):
            raise ValueError(f"body cut short at {len(data)} of {length} bytes")
        return status, data, reusable

    def _read_chunked(self) -> bytes:
        pieces = []
        while True:
            line = self.reader.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise ValueError("chunk size line too long")
            match = _CHUNK_SIZE.fullmatch(line)
            if match is None:
                raise ValueError(f"bad chunk size line {line[:80]!r}")
            size = int(match[1], 16)
            if size == 0:
                _read_headers(self.reader)  # the trailer, not used
                return b"".join(pieces)
            pieces.append(_read_body(self.reader, size, _REPLY_BUFFER))
            if len(pieces[-1]) < size or self.reader.readline(3) not in (b"\r\n", b"\n"):
                raise ValueError("chunk cut short")


class _ConnectionPool:
    """Keep-alive HTTP/1.1 connections shared by every http(s) request.

    Idle connections are kept per origin (scheme, host, port): at most
    ``PER_ORIGIN`` of them, for the ``ORIGINS`` origins used most
    recently; the origins of the ``ORIGINS`` netlocs parsed last are kept.
    A reused connection that the server dropped while it sat
    idle is replaced by a fresh one, once. Redirects are not followed and
    proxy variables are not read.
    """

    ORIGINS = 8
    PER_ORIGIN = 4

    def __init__(self):
        self._idle: OrderedDict[tuple, list] = OrderedDict()
        self._origins: dict[tuple, tuple] = {}  # (scheme, netloc) -> origin, oldest first
        self._lock = threading.Lock()
        self._tls = None

    def request(self, method: str, url: SplitResult, body: bytes | None = None,
                timeout: float = 5.0) -> tuple[int, bytes]:
        """Send one request to a split URL; returns the status and the body read whole."""
        conn = None
        try:
            origin = self._origin(url)
            target = url.path or "/"
            if url.query:
                target = f"{target}?{url.query}"
            if not origin[1] or _BAD_TARGET.search(target):
                raise ValueError("no host, or a request target that is not printable ASCII")
            conn = self._take(origin)
            if conn is not None:
                try:
                    status, data, reusable = conn.exchange(method, target, body, timeout)
                except _Dropped:
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connect(origin, timeout)
                status, data, reusable = conn.exchange(method, target, body, timeout)
        except (OSError, ValueError) as exc:
            if conn is not None:
                conn.close()
            raise OctvError(f"{method} {url.geturl()} failed: {exc!r}") from None
        if reusable:
            self._give(origin, conn)
        else:
            conn.close()
        return status, data

    def _origin(self, url: SplitResult) -> tuple:
        """``(scheme, hostname, port)`` of ``url``, kept for the ``ORIGINS`` netlocs
        parsed last; only a parse that succeeds is kept, so a bad port raises on
        every request."""
        key = (url.scheme, url.netloc)
        origin = self._origins.get(key)
        if origin is None:
            origin = (url.scheme, url.hostname, url.port)
            with self._lock:
                self._origins[key] = origin
                while len(self._origins) > self.ORIGINS:
                    del self._origins[next(iter(self._origins))]
        return origin

    def _connect(self, origin, timeout) -> _Connection:
        return _Connection(origin, timeout, self._tls_context() if origin[0] == "https" else None)

    def _tls_context(self) -> ssl.SSLContext:
        if self._tls is None:
            self._tls = ssl.create_default_context()  # verifies certificate and host name
        return self._tls

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

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, OrderedDict()
        for conns in idle.values():
            for conn in conns:
                conn.close()


# one per process: ``fetch_url`` is a plain function that fetchers pass around
_POOL = _ConnectionPool()
atexit.register(_POOL.close)  # idle sockets are closed, not left to the collector


class HttpStoreClient:
    """Camera-side store access over the HTTP interface."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: ObjectKey) -> str:
        return f"{self.base_url}/{key.path}"

    def put(self, key: ObjectKey, data: bytes) -> None:
        status, _ = _POOL.request("PUT", urlsplit(self._url(key)), data, self.timeout)
        if status == 409:
            raise ConflictError(f"object {key.path} already exists")
        if not 200 <= status < 300:
            raise OctvError(f"upload failed with status {status}")

    def get(self, key: ObjectKey) -> bytes:
        return fetch_url(self._url(key), timeout=self.timeout)

    def contains(self, key: ObjectKey) -> bool:
        status, _ = _POOL.request("HEAD", urlsplit(self._url(key)), timeout=self.timeout)
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
    """GET a footage URL (http, https or file scheme); http(s) reuses pooled connections.

    A ``file:`` URL is read directly, with no name lookup: its host part
    must be empty or ``localhost``, and any other host is refused.
    """
    parts = urlsplit(url)
    if parts.scheme == "file":
        if parts.netloc.lower() not in ("", "localhost"):
            raise OctvError(f"file URL names another host: {parts.netloc!r}")
        try:
            with open(unquote(parts.path), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise NotFoundError(f"footage not found at {url}") from None
        except OSError as exc:
            raise OctvError(f"fetch failed: {exc!r}") from None
    if parts.scheme not in ("http", "https"):
        raise ProtocolError(f"unsupported URL scheme {parts.scheme!r}")
    status, data = _POOL.request("GET", parts, timeout=timeout)
    if status == 404:
        raise NotFoundError(f"footage not found at {url}")
    if status != 200:
        raise OctvError(f"fetch failed with status {status}")
    return data
