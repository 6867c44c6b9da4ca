"""The store's wire bytes and URL and head parsing, pinned against fixed references.

Request heads and reply heads are compared byte for byte (the reply's
``Date`` masked). The pool's URL split must agree with ``urlsplit`` and the
head reader with a frozen copy of the earlier reader (``head_reference``).
"""

import io
import os
import re
import socket
import threading
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import head_reference
from octv import store as store_module
from octv.protocol import format_video_url
from octv.store import (
    FsObjectStore,
    HttpStoreClient,
    MemoryObjectStore,
    ObjectKey,
    StoreServer,
    fetch_url,
    open_store,
)

KEY = ObjectKey(bytes.fromhex("0102030405060708"))


@pytest.fixture
def pool(monkeypatch):
    """A fresh connection pool for one test."""
    fresh = store_module._ConnectionPool()
    monkeypatch.setattr(store_module, "_POOL", fresh)
    yield fresh
    fresh.close()


@pytest.fixture
def store_server():
    store = MemoryObjectStore()
    server = StoreServer(store)
    server.start()
    yield server, store
    server.stop()


class CaptureServer:
    """Records every request it reads, head and body, and answers each one.

    A GET is answered 200 with a body of ``hi``, any other method 200 with
    no body; connections are kept open.
    """

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # closed
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rb") as reader:
            try:
                while head := self._read_head(reader):
                    lengths = re.findall(rb"\r\nContent-Length: (\d+)\r\n", head)
                    self.requests.append(head + reader.read(int(lengths[0]) if lengths else 0))
                    body = b"hi" if head.startswith(b"GET ") else b""
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                                 % (len(body), body))
            except OSError:
                pass

    @staticmethod
    def _read_head(reader) -> bytes:
        head = b""
        while line := reader.readline():
            head += line
            if line == b"\r\n":
                return head
        return b""

    def close(self):
        self.listener.close()


@pytest.fixture
def capture(monkeypatch, pool):
    """A capture server that every client connection reaches, whatever host it names."""
    server = CaptureServer()
    connect = socket.create_connection
    monkeypatch.setattr(socket, "create_connection",
                        lambda _address, *args, **kwargs:
                        connect(("127.0.0.1", server.port), *args, **kwargs))
    yield server
    server.close()


class TestRequestBytes:
    """Each request the client sends, byte for byte, for three kinds of host."""

    @pytest.mark.parametrize("base, sent", [
        ("http://store.example:8080", [
            b"GET /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example:8080\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
            b"PUT /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example:8080\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: 7\r\n\r\nfootage",
            b"HEAD /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example:8080\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
        ]),
        ("http://[fd00::1]:8080", [
            b"GET /0102030405060708.mp4 HTTP/1.1\r\nHost: [fd00::1]:8080\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
            b"PUT /0102030405060708.mp4 HTTP/1.1\r\nHost: [fd00::1]:8080\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: 7\r\n\r\nfootage",
            b"HEAD /0102030405060708.mp4 HTTP/1.1\r\nHost: [fd00::1]:8080\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
        ]),
        ("http://store.example", [
            b"GET /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
            b"PUT /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: 7\r\n\r\nfootage",
            b"HEAD /0102030405060708.mp4 HTTP/1.1\r\nHost: store.example\r\n"
            b"Accept-Encoding: identity\r\n\r\n",
        ]),
    ], ids=["ipv4-name-and-port", "ipv6", "no-port"])
    def test_request_heads(self, capture, base, sent):
        client = HttpStoreClient(base)
        for _ in range(2):  # a first request and one on the kept connection
            capture.requests.clear()
            assert fetch_url(f"{base}/{KEY.path}") == b"hi"
            client.put(KEY, b"footage")
            assert client.contains(KEY)
            assert capture.requests == sent


def masked(reply: bytes) -> bytes:
    """``reply`` with its one IMF-fixdate ``Date`` value replaced by ``*``."""
    masked, count = re.subn(
        rb"\r\nDate: [A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT\r\n",
        b"\r\nDate: *\r\n", reply)
    assert count == 1, reply[:200]
    return masked


def replies_to(port: int, request: bytes) -> bytes:
    """Everything the store sends back to ``request`` on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        replies = b""
        while chunk := sock.recv(65536):
            replies += chunk
    return replies


class TestReplyBytes:
    """Each store reply, byte for byte, with its Date masked."""

    @pytest.mark.parametrize("request_bytes, reply", [
        (b"GET /0102030405060708.mp4 HTTP/1.1\r\nHost: s\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nDate: *\r\nContent-Type: application/octet-stream\r\n"
         b"Content-Length: 5\r\n\r\nhello"),
        (b"GET /0102030405060709.mp4 HTTP/1.1\r\n\r\n",
         b"HTTP/1.1 404 Not Found\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 10\r\n\r\nnot found\n"),
        (b"GET /zz.mp4 HTTP/1.1\r\n\r\n",
         b"HTTP/1.1 400 Bad Request\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 45\r\n\r\nbad request: expected /<16-hex-id>.<mp4|jpg>\n"),
        (b"HEAD /0102030405060708.mp4 HTTP/1.1\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nDate: *\r\nContent-Type: application/octet-stream\r\n"
         b"Content-Length: 0\r\n\r\n"),
        (b"PUT /0a02030405060708.jpg HTTP/1.1\r\nContent-Length: 7\r\n\r\nfootage",
         b"HTTP/1.1 201 Created\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 8\r\n\r\ncreated\n"),
        (b"PUT /0102030405060708.mp4 HTTP/1.1\r\nContent-Length: 7\r\n\r\nfootage",
         b"HTTP/1.1 409 Conflict\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 14\r\n\r\nobject exists\n"),
        (b"GET /0102030405060708.mp4 HTTP/1.1\r\nConnection: close\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nDate: *\r\nContent-Type: application/octet-stream\r\n"
         b"Content-Length: 5\r\nConnection: close\r\n\r\nhello"),
        (b"GET /0102030405060708.mp4 HTTP/1.0\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nDate: *\r\nContent-Type: application/octet-stream\r\n"
         b"Content-Length: 5\r\nConnection: close\r\n\r\nhello"),
        (b"GET /0102030405060708.mp4 HTTP/1.1\r\nHost : s\r\n\r\n",
         b"HTTP/1.1 400 Bad Request\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 29\r\nConnection: close\r\n\r\nBad header line ('Host : s')\n"),
        (b"HEAD /0102030405060708.mp4 HTTP/2.0\r\n\r\n",
         b"HTTP/1.1 505 HTTP Version Not Supported\r\nDate: *\r\nContent-Type: text/plain\r\n"
         b"Content-Length: 27\r\nConnection: close\r\n\r\nInvalid HTTP version (2.0)\n"),
    ], ids=["get-200", "get-404", "get-400", "head-200", "put-201", "put-409", "get-close",
            "http-1.0", "bad-head-400", "http2-505"])
    def test_reply(self, store_server, request_bytes, reply):
        server, store = store_server
        store.put(KEY, b"hello")
        assert masked(replies_to(server.port, request_bytes)) == reply


def split_outcome(split, origin_of, url: str):
    """What a request learns from ``url``: its parts, origin and request target,
    or the type and text of the error the split or the origin raises."""
    try:
        parts = split(url)
        target = parts.path or "/"
        if parts.query:
            target = f"{target}?{parts.query}"
        return tuple(parts), origin_of(parts), target
    except ValueError as exc:
        return type(exc), str(exc)


def reference_outcome(url: str):
    return split_outcome(urlsplit, lambda parts: (parts.scheme, parts.hostname, parts.port), url)


def pool_outcome(pool, url: str):
    return split_outcome(pool.split, pool._origin, url)


TEMPLATES = st.builds(
    "{}://{}{}{}{{id}}.{}{}".format,
    st.sampled_from(["http", "https", "HTTP", "Https"]),
    st.sampled_from(["127.0.0.1", "store.example", "STORE.Example", "[::1]", "[fe80::1%25eth0]",
                     "[2001:DB8::7]", "user:secret@store.example", "u@[::1]",
                     "xn--bcher-kva.example"]),
    st.sampled_from(["", ":8080", ":1", ":65535", ":0", ":99999"]),
    st.sampled_from(["/", "/footage/", "/a/b-c/", "/~cam_1/", "//", "/x//y/", "/A.B/"]),
    st.sampled_from(["mp4", "jpg"]),
    st.sampled_from(["", "?v=1", "#t=10", "?a=b#c", "?", "#"]),
)


@settings(max_examples=200, deadline=None)
@given(template=TEMPLATES, video_ids=st.lists(st.binary(min_size=8, max_size=8), min_size=1,
                                              max_size=4))
def test_split_of_footage_urls_agrees_with_urlsplit(template, video_ids):
    """The footage URLs of one template, split in turn: the first parses the origin
    and the rest may be read off it."""
    pool = store_module._ConnectionPool()
    for video_id in video_ids:
        url = format_video_url(template, video_id)
        assert pool_outcome(pool, url) == reference_outcome(url)


BASES = ["http://127.0.0.1:8080", "http://store.example", "https://[::1]:443",
         "http://u:p@store.example:81", "http://[fe80::1%25eth0]", "http://store.example:99999",
         "http://store.example:8o", "http://[::1", "file://", "//store.example"]
HOSTILE = ["", "%", "%2F", "%zz", "\u00e9", "\u3000", "\uff0f", "?", "#", "//", ":", "@", "[", "]",
           " ", "\t", "\r", "\n", "\x00", "\x1f", "\x7f", ";"]


def hostile_outcomes(base: str, url: str):
    """``url`` split by a pool that has parsed ``base`` already, and by ``urlsplit``."""
    pool = store_module._ConnectionPool()
    warm = f"{base}/warm"
    assert pool_outcome(pool, warm) == reference_outcome(warm)  # keeps the origin if it parses
    return pool_outcome(pool, url), reference_outcome(url)


@pytest.mark.parametrize("base, url", [
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/a\tb.mp4"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/a\rb.mp4\n"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:80\t80/x.mp4"),
    ("http://127.0.0.1:8080", "ht\ntp://127.0.0.1:8080/x.mp4"),
    ("http://127.0.0.1:8080", " http://127.0.0.1:8080/x.mp4"),
    ("http://127.0.0.1:8080", "\x00http://127.0.0.1:8080/x.mp4"),
    ("http://127.0.0.1:8080", "HTTP://127.0.0.1:8080/x.mp4"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/a%2Fb.mp4"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/\u00e9.mp4"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080//x.mp4"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080?x"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080#x"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/a?b"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080/a#b"),
    ("http://127.0.0.1:8080", "http://127.0.0.1:8080x/a"),
    ("//store.example", "://store.example/x.mp4"),
    ("http://store.example:99999", "http://store.example:99999/x.mp4"),
    ("http://store.example:8o", "http://store.example:8o/x.mp4"),
    ("http://[::1", "http://[::1/x.mp4"),
])
def test_split_of_hostile_urls_agrees_with_urlsplit(base, url):
    mine, reference = hostile_outcomes(base, url)
    assert mine == reference


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(BASES),
       lead=st.text(st.sampled_from(" \x00\x01\x1f\t\n:"), max_size=2),
       start=st.sampled_from(["", "/", "//"]),
       plain=st.text(st.sampled_from("abXY09-._~/"), max_size=10),
       hostile=st.tuples(st.integers(min_value=0, max_value=10), st.sampled_from(HOSTILE)),
       cut=st.tuples(st.integers(min_value=0, max_value=40),
                     st.sampled_from(["", "\t", "\r", "\n"])))
def test_split_of_astray_urls_agrees_with_urlsplit(base, lead, start, plain, hostile, cut):
    """URLs that start from an origin already parsed, then go astray: a leading
    control character, space or colon, a tab, CR or LF anywhere, a ``%``,
    non-ASCII, an empty or ``//`` path, or a port that does not parse."""
    at, piece = hostile
    url = lead + base + start + plain[:at] + piece + plain[at:]
    at, piece = cut
    url = url[:at] + piece + url[at:]
    mine, reference = hostile_outcomes(base, url)
    assert mine == reference


def test_one_origin_is_split_once(store_server, pool, monkeypatch):
    """100 GETs of one origin parse its URL with ``urlsplit`` once at most."""
    server, store = store_server
    keys = [ObjectKey(i.to_bytes(8, "big")) for i in range(100)]
    for key in keys:
        store.put(key, key.path.encode())
    calls = []
    monkeypatch.setattr(store_module, "urlsplit",
                        lambda url, *args: calls.append(url) or urlsplit(url, *args))
    for key in keys:
        assert fetch_url(f"{server.base_url()}/{key.path}") == key.path.encode()
    assert len(calls) <= 1


def test_store_client_splits_its_origin_once(store_server, pool, monkeypatch):
    """A camera's uploads, existence checks and reads share one parse of the store URL."""
    server, _ = store_server
    calls = []
    monkeypatch.setattr(store_module, "urlsplit",
                        lambda url, *args: calls.append(url) or urlsplit(url, *args))
    client = HttpStoreClient(server.base_url())
    for i in range(20):
        key = ObjectKey(i.to_bytes(8, "big"))
        assert not client.contains(key)
        client.put(key, b"footage")
        assert client.get(key) == b"footage"
    assert len(calls) <= 1


@pytest.mark.parametrize("target", ["HTTP://127.0.0.1:8080/", "Https://store.example/",
                                    "HTTPS://STORE.EXAMPLE"])
def test_open_store_reads_the_scheme_in_any_case(tmp_path, monkeypatch, target):
    """A store URL is an HTTP store whatever the case of its scheme, and makes no directory."""
    monkeypatch.chdir(tmp_path)
    assert isinstance(open_store(target), HttpStoreClient)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["http:dir", "https:/x", " http://h/", "x://srv[1/dir"])
def test_open_store_keeps_other_targets_local(tmp_path, monkeypatch, target):
    """Only a target that begins with http:// or https:// is a URL; the rest are directories."""
    monkeypatch.chdir(tmp_path)
    store = open_store(target)
    assert isinstance(store, FsObjectStore)
    assert os.path.isdir(tmp_path / target)


def read_outcome(read_headers, head_error, data: bytes):
    """Fields and the bytes left unread, or the refusal's status and text and the bytes left."""
    reader = io.BufferedReader(io.BytesIO(data))
    try:
        fields = read_headers(reader)
    except head_error as err:
        return "refused", err.status, str(err), reader.read()
    return "read", fields, reader.read()


def check_against_reference(data: bytes, parsed=None) -> None:
    """Read ``data`` twice with one connection's kept lines: the second read finds the
    field lines that the first one parsed."""
    want = read_outcome(head_reference.read_headers, head_reference.HeadError, data)
    parsed = {} if parsed is None else parsed
    for _ in range(2):
        got = read_outcome(lambda reader: store_module._read_headers(reader, parsed),
                           store_module._HeadError, data)
        assert got == want


# field lines: latin-1 whitespace (0x1C, 0x85, 0xA0) inside a value or at its ends, blanks
# and CRs before the line end, repeats of a name in either case
FIELD_LINES = [
    b"Host: store\r\n", b"Content-Length: 3\r\n", b"content-length: 3\r\n", b"X: a \t\r\n",
    b"X: a\r\r\n", b"X: a\r \r\n", b"X: a \r\t\r\n", b"X:\r\n", b"X:   \r\n", b"X: y\n",
    b"x: z\r\n", b"X: \x1cy\x85\xa0\r\n", b"X: y\x1c\r\n", b"X: y\xa0\r\n", b"X:\x85y\r\n",
    b"X: \xa0\r\n", b"\xc0\xff: \xe9\r\n", b"\xc0X: y\r\n", b"Connection: close\r\n",
    b"Transfer-Encoding: chunked\r\n", b"X: " + b"a" * 300 + b"\r\n",
]
# obs-fold lines, lines that are not fields, and ends of a head
OTHER_LINES = [
    b" folded\r\n", b"\tfolded \r\n", b" \r\n", b" \x85\r\n", b"X\x1c: y\r\n", b"X\x85: y\r\n",
    b"X\xa0: y\r\n", b"\x1cX: y\r\n", b"Host : s\r\n", b":\r\n", b": v\r\n", b"X y\r\n",
    b"\r\n", b"\n", b"X: y",
]


@pytest.mark.parametrize("line", FIELD_LINES + OTHER_LINES)
def test_head_reader_agrees_on_each_line(line):
    for before in (b"", b"Y: first\r\n", line):
        check_against_reference(before + line + b"\r\nrest")


HEAD_LINES = (st.sampled_from(FIELD_LINES) | st.sampled_from(OTHER_LINES)
              | st.binary(max_size=24).map(lambda line: line + b"\r\n"))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(HEAD_LINES, max_size=10), rest=st.binary(max_size=12))
def test_head_reader_agrees_with_the_reference(lines, rest):
    """Random heads: latin-1 whitespace in names and values, obs-fold lines, repeated
    fields, bare LF ends and heads cut short."""
    check_against_reference(b"".join(lines) + rest)


def numbered_fields(count: int) -> bytes:
    return b"".join(b"X-%d: y\r\n" % i for i in range(count))


@pytest.mark.parametrize("data", [
    b"X: " + b"a" * (65536 - 5) + b"\r\n\r\nrest",
    b"X: " + b"a" * (65536 - 4) + b"\r\n\r\nrest",
    b"X: " + b"a" * (65536 - 3) + b"\n\r\nrest",
    b"X: y\r\n" + b"a" * 70000,
    numbered_fields(99) + b"\r\nrest",
    numbered_fields(100) + b"\r\nrest",
    b"X: y\r\n" * 99 + b"\r\nrest",
    b"X: y\r\n" * 100 + b"\r\nrest",
    b"X: y\r\n" + b" fold\r\n" * 98 + b"\r\nrest",
    b"Content-Length: 1\r\n" * 2 + b"\r\n",
], ids=["line-at-limit", "line-over-limit", "lf-line-over-limit", "unended-long-line",
        "99-fields", "100-fields", "99-repeats", "100-repeats", "98-folds", "repeated-length"])
def test_head_reader_agrees_at_the_limits(data):
    check_against_reference(data)


def test_kept_field_lines_stay_bounded():
    parsed = {}
    for i in range(5 * store_module._KEPT_LINES):
        check_against_reference(b"X-%d: %d\r\nX: %s\r\n\r\n" % (i, i, b"a" * 300), parsed)
        assert 0 < len(parsed) <= store_module._KEPT_LINES
    assert all(len(line) <= store_module._KEPT_LINE for line in parsed)
