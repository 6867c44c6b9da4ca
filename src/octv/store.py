"""Footage object store: filesystem backend, HTTP serving, and fetchers.

Objects are addressed by ``<16-hex video id>.<mp4|jpg>`` exactly as the
broadcast URL template names them, and are immutable once written. The
server never inspects or logs payload contents beyond their length; its
request log holds method, path, status and size only. Clients keep their
HTTP/1.1 connections open in one small pool shared by every request, which
splits each request's URL once and keeps the parse of its origin. Both
ends frame HTTP/1.1 themselves: one header reader, with the stdlib's line
and count limits, parses request and reply heads alike, and keeps the field
lines it parsed last. The store serves each connection from its own
request loop and writes every reply head and body with one gathered send;
each head carries ``Date``, ``Content-Type``, ``Content-Length`` and, when
the store then closes, ``Connection: close``. Plain-``http`` sockets on both
ends are blocking, with their timeouts held by the kernel, so each receive
and each send is one system call; an expiry is still a ``TimeoutError``.
"""

import atexit
import io
import math
import os
import re
import secrets
import socket
import socketserver
import ssl
import struct
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

    __slots__ = ("video_id", "extension", "path")

    def __init__(self, video_id: bytes, extension: str = "mp4"):
        if len(video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes, got {len(video_id)}")
        if extension not in FOOTAGE_EXTENSIONS:
            raise ValueError(f"extension must be mp4 or jpg, got {extension!r}")
        self.video_id = video_id
        self.extension = extension
        self.path = f"{video_id.hex()}.{extension}"

    @classmethod
    def from_path(cls, path: str) -> "ObjectKey":
        match = _OBJECT_RE.match(path)
        if not match:
            raise ProtocolError(f"not a valid object path: {path!r}")
        return cls(bytes.fromhex(match[1]), match[2])

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
# a connection keeps at most this many parsed field lines, each of at most _KEPT_LINE bytes
_KEPT_LINES = 64
_KEPT_LINE = 256
# a chunk's size line (RFC 9112 7.1): hex digits only, then an extension that is not read
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;.*)?\r?\n")
_YIELD = getattr(os, "sched_yield", None)  # not on Windows
# struct timeval, as SO_RCVTIMEO and SO_SNDTIMEO take it: seconds, microseconds
_TIMEVAL = struct.Struct("@ll")


def _hold_timeout(sock: socket.socket, timeout: float | None) -> None:
    """Bound each receive and each send on ``sock`` by ``timeout`` seconds; None is no bound.

    A plain socket is made blocking, with the timeout held by the kernel
    (``SO_RCVTIMEO``, ``SO_SNDTIMEO``): each receive or send is then one
    system call, where a Python-level timeout polls before each. An
    expired receive or send raises ``BlockingIOError``: read the socket
    through ``_SocketReader``, and take a send's as the timeout.

    A TLS socket keeps ``settimeout``: on a blocking ``SSLSocket`` the
    ``ssl`` module retries a read that the kernel timed out, so the read
    would wait until the peer closed. So does a platform whose options
    take no ``timeval``.
    """
    if isinstance(sock, ssl.SSLSocket) or os.name != "posix":
        sock.settimeout(timeout)
        return
    if timeout is None:
        microseconds = 0
    elif timeout < 0:
        raise ValueError("Timeout value out of range")
    else:  # rounded up, to one at least: a zero timeval is no bound
        microseconds = max(1, math.ceil(timeout * 1_000_000))
    held = _TIMEVAL.pack(*divmod(microseconds, 1_000_000))
    sock.settimeout(None)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, held)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, held)


class _SocketReader(socket.SocketIO):
    """A socket's raw reader, under its buffered one, for ``_hold_timeout``'s sockets.

    A receive that the kernel timed out raises ``TimeoutError``, where
    ``SocketIO`` returns None and its buffer takes that for end of stream,
    which a client would read as a dropped connection and retry.
    """

    def readinto(self, b):
        try:
            return self._sock.recv_into(b)
        except BlockingIOError:
            raise TimeoutError("timed out") from None


class _HeadError(ValueError):
    """A message head that is refused; ``status`` is what the store answers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_headers(reader, parsed: dict[bytes, tuple[str, str]]) -> dict[str, str]:
    """Read header fields up to the blank line; values by lower-cased name.

    The first of a repeated field counts. A repeated Content-Length, a
    line that is not ``name: value`` (RFC 9112 §5.1 puts no whitespace
    before the colon) and a head cut short by end of stream are errors.
    An obs-fold line continues the previous value.

    ``parsed`` is the connection's own: its field lines parsed before, as
    (lower-cased name, value) by their bytes. A kept-alive connection sends
    the same lines again (its Host on each request, a Content-Type on each
    reply). It keeps ``_KEPT_LINES`` short lines at most and is emptied
    when full.
    """
    headers = {}
    last = None
    readline = reader.readline
    for _ in range(_MAX_HEADERS):
        line = readline(_MAX_LINE + 1)
        field = parsed.get(line)
        if field is None:
            if len(line) > _MAX_LINE:
                raise _HeadError(431, "Line too long")
            if line in (b"\r\n", b"\n"):
                return headers
            match = _FIELD.fullmatch(str(line, "latin-1"))
            if match is None:  # no ending newline, an obs-fold line, or not a field
                if not line.endswith(b"\n"):
                    raise _HeadError(400, "Head cut short")
                text = str(line, "latin-1").rstrip("\r\n")
                if last is None or text[:1] not in (" ", "\t"):
                    raise _HeadError(400, f"Bad header line ({text[:80]!r})")
                headers[last] = f"{headers[last]} {text.strip()}".lstrip()
                continue
            name, value = match.groups()
            field = name.lower(), value.rstrip("\r").rstrip(" \t")
            if len(line) <= _KEPT_LINE:
                if len(parsed) >= _KEPT_LINES:
                    parsed.clear()
                parsed[line] = field
        name, value = field
        if name not in headers:
            headers[name] = value
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


class _StoreHandler(socketserver.BaseRequestHandler):
    """One connection: its requests are read and answered in turn until it closes."""

    # a connection idle this long is closed, so a vanished client cannot hold its thread
    timeout = 30.0

    def setup(self) -> None:
        self.connection = sock = self.request
        _hold_timeout(sock, self.timeout)
        # a reply goes out in one gathered send, with Nagle's algorithm off: sent as headers
        # then body, the body waited for the client's delayed ACK (~40 ms per keep-alive GET)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = io.BufferedReader(_SocketReader(sock, "rb"), io.DEFAULT_BUFFER_SIZE)

    def finish(self) -> None:
        self.rfile.close()

    def handle(self) -> None:
        self._parsed = {}  # this connection's field lines, for _read_headers
        try:
            while self._serve_one():
                pass
        # the client went away, or sat idle or stalled past ``timeout``: closed quietly.
        # A send that the kernel timed out raises BlockingIOError
        except (ConnectionError, TimeoutError, BlockingIOError):
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
            if len(words) != 3:
                raise _HeadError(400, "Bad request line")
            command, path, version = words
            match = _VERSION.fullmatch(version)
            if match is None:
                raise _HeadError(400, "Bad request line")
            major, minor = int(match[1]), int(match[2])
            if major >= 2:
                raise _HeadError(505, f"Invalid HTTP version ({version[5:]})")
            http11 = (major, minor) >= (1, 1)
            if path.startswith("//"):  # gh-87389: never an absolute URI without a scheme
                path = "/" + path.lstrip("/")
            self.command, self.path = command, path
            self.headers = headers = _read_headers(self.rfile, self._parsed)
            method = self._METHODS.get(command)
            if method is None:
                raise _HeadError(501, f"Unsupported method ({command!r})")
        except _HeadError as err:  # answered unlogged
            self._send(err.status, f"{err}\n".encode())
            return False
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (not http11 and connection != "keep-alive")
        if http11 and headers.get("expect", "").lower() == "100-continue":
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
# a URL path of unreserved characters (RFC 3986 §2.3) and "/", which ``urlsplit`` keeps whole
_PLAIN_PATH = re.compile(r"[A-Za-z0-9._~/-]*")


class _Connection:
    """One HTTP/1.1 client connection: a socket and its buffered reader."""

    def __init__(self, origin: tuple, timeout: float, tls: ssl.SSLContext | None):
        _, host, port = origin
        sock = socket.create_connection((host, port or (443 if tls else 80)), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=host)
            _hold_timeout(sock, timeout)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.origin = origin
        self.reused = False  # set once the connection has gone back to the pool
        self._timeout = timeout
        self.reader = io.BufferedReader(_SocketReader(sock, "rb"), _REPLY_BUFFER)
        self._parsed = {}  # this connection's field lines, for _read_headers
        name = host if host.isascii() else host.encode("idna").decode()
        name = f"[{name}]" if ":" in name else name
        name = name if port is None else f"{name}:{port}"
        # every request head goes on from its target with these lines
        self._fields = f" HTTP/1.1\r\nHost: {name}\r\nAccept-Encoding: identity\r\n"

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def send(self, method: str, target: str, body: bytes | None, timeout: float) -> None:
        """Send one request whole; its reply is left for ``receive``.

        A send that the server reset or closed is not raised here: with
        nothing of the reply on its way, ``receive`` reads that as ``_Dropped``.
        """
        if body is None:
            head = f"{method} {target}{self._fields}\r\n"
        else:
            head = f"{method} {target}{self._fields}Content-Length: {len(body)}\r\n\r\n"
        sock = self.sock
        if timeout != self._timeout:  # set at connect; a request may ask for another
            _hold_timeout(sock, timeout)
            self._timeout = timeout
        try:
            sock.sendall(head.encode("ascii"))
            if body:
                sock.sendall(body)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except BlockingIOError:  # a send that the kernel timed out
            raise TimeoutError("timed out") from None

    def receive(self, method: str) -> tuple[int, bytes, bool]:
        """Read the reply to the request sent last, whole.

        Returns the status, the body, and whether the connection can carry
        another request. Raises ``_Dropped`` if the server had closed it.
        """
        reader = self.reader
        try:
            line = reader.readline(_MAX_LINE + 1)
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
            headers = _read_headers(reader, self._parsed)
            if not 100 <= status < 200:
                break
            line = reader.readline(_MAX_LINE + 1)  # after an interim reply, the real one
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
            return status, reader.read(), False  # the body ends where the connection does
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        size = int(length)
        data = _read_body(reader, size, _REPLY_BUFFER)
        if len(data) < size:
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
                _read_headers(self.reader, self._parsed)  # the trailer, not used
                return b"".join(pieces)
            pieces.append(_read_body(self.reader, size, _REPLY_BUFFER))
            if len(pieces[-1]) < size or self.reader.readline(3) not in (b"\r\n", b"\n"):
                raise ValueError("chunk cut short")


class _ConnectionPool:
    """Keep-alive HTTP/1.1 connections shared by every http(s) request.

    Idle connections are kept per origin (scheme, host, port): at most
    ``PER_ORIGIN`` of them, for the ``ORIGINS`` origins used most
    recently. The origins of the ``ORIGINS`` netlocs parsed last are kept,
    and ``split`` splits a URL that goes on from one of them by that text.
    A request is a ``send``, then a ``receive`` of its reply, so a caller
    can work while the server takes the body. A reused connection that
    the server dropped while it sat idle is found by the receive and
    replaced by a fresh one, once, on which the request is sent again.
    Redirects are not followed and proxy variables are not read.
    """

    ORIGINS = 8
    PER_ORIGIN = 4

    def __init__(self):
        self._idle: OrderedDict[tuple, list] = OrderedDict()
        self._origins: dict[tuple, tuple] = {}  # (scheme, netloc) -> origin, oldest first
        self._lock = threading.Lock()
        self._tls = None

    def split(self, url: str) -> SplitResult:
        """``urlsplit(url)``, read off a kept origin's text where the URL allows it.

        That is a URL made of a kept scheme (not empty) and netloc, exactly
        as parsed, with ``://`` between them, then nothing or a path of
        ``/`` and unreserved characters only (RFC 3986 §2.3) that starts
        with ``/``. ``urlsplit`` strips, removes and splits at none of those
        characters, so it would return that scheme, netloc and path, and no
        query or fragment. Every other URL goes to ``urlsplit``.
        """
        colon = url.find("://")
        if colon > 0:  # at the start, "://" follows no scheme
            end = url.find("/", colon + 3)
            end = len(url) if end < 0 else end
            scheme, netloc = url[:colon], url[colon + 3:end]
            if (scheme, netloc) in self._origins and _PLAIN_PATH.fullmatch(url, end):
                return SplitResult._make((scheme, netloc, url[end:], "", ""))
        return urlsplit(url)

    def request(self, method: str, url: SplitResult, body: bytes | None = None,
                timeout: float = 5.0) -> tuple[int, bytes]:
        """Send one request to a split URL; returns the status and the body read whole."""
        return self.receive(self.send(method, url, body, timeout), method, url, body, timeout)

    def send(self, method: str, url: SplitResult, body: bytes | None = None,
             timeout: float = 5.0) -> _Connection:
        """Send one request to a split URL, on an idle connection to its origin or a new
        one; returns that connection, for ``receive`` to read the reply on."""
        conn = None
        try:
            origin = self._origin(url)
            target = self._target(url)
            if not origin[1] or _BAD_TARGET.search(target):
                raise ValueError("no host, or a request target that is not printable ASCII")
            conn = self._take(origin)
            if conn is None:
                conn = self._connect(origin, timeout)
            conn.send(method, target, body, timeout)
            return conn
        except (OSError, ValueError) as exc:
            if conn is not None:
                conn.close()
            raise OctvError(f"{method} {url.geturl()} failed: {exc!r}") from None

    def receive(self, conn: _Connection, method: str, url: SplitResult,
                body: bytes | None = None, timeout: float = 5.0) -> tuple[int, bytes]:
        """The status and the body, read whole, of the reply to what ``send`` sent on
        ``conn``. An idle connection that the server had dropped is replaced once, and
        the request sent again on the new one."""
        try:
            try:
                status, data, reusable = conn.receive(method)
            except _Dropped:
                if not conn.reused:
                    raise
                conn.close()
                conn = self._connect(conn.origin, timeout)
                conn.send(method, self._target(url), body, timeout)
                status, data, reusable = conn.receive(method)
        except (OSError, ValueError) as exc:
            conn.close()
            raise OctvError(f"{method} {url.geturl()} failed: {exc!r}") from None
        if reusable:
            self._give(conn)
        else:
            conn.close()
        return status, data

    @staticmethod
    def _target(url: SplitResult) -> str:
        """The request target of ``url``: its path, and its query after a ``?``."""
        target = url.path or "/"
        return f"{target}?{url.query}" if url.query else target

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

    def _give(self, conn) -> None:
        conn.reused = True
        origin = conn.origin
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
        self.begin_put(key, data)()

    def begin_put(self, key: ObjectKey, data: bytes):
        """Send a PUT of ``data`` as ``key``; returns the call, made once, that reads its reply.

        The store takes the body while the caller goes on. This never raises:
        the call it returns raises as ``put`` does, a failed send included.
        """
        try:
            url = _POOL.split(self._url(key))
            conn = _POOL.send("PUT", url, data, self.timeout)
        except (OctvError, ValueError) as exc:
            error = exc

            def fail() -> None:
                raise error

            return fail

        def finish() -> None:
            status, _ = _POOL.receive(conn, "PUT", url, data, self.timeout)
            if status == 409:
                raise ConflictError(f"object {key.path} already exists")
            if not 200 <= status < 300:
                raise OctvError(f"upload failed with status {status}")

        return finish

    def get(self, key: ObjectKey) -> bytes:
        return fetch_url(self._url(key), timeout=self.timeout)

    def contains(self, key: ObjectKey) -> bool:
        status, _ = _POOL.request("HEAD", _POOL.split(self._url(key)), timeout=self.timeout)
        if status == 404:
            return False
        if not 200 <= status < 300:
            raise OctvError(f"store returned status {status}")
        return True


def open_store(target: str):
    """Resolve a store target: http(s) URL or a local directory path."""
    if target[:8].lower().startswith(("http://", "https://")):
        return HttpStoreClient(target)
    return FsObjectStore(target)


def fetch_url(url: str, timeout: float = 5.0) -> bytes:
    """GET a footage URL (http, https or file scheme); http(s) reuses pooled connections.

    A ``file:`` URL is read directly, with no name lookup: its host part
    must be empty or ``localhost``, and any other host is refused.
    """
    parts = _POOL.split(url)
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
