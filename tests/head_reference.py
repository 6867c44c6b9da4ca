"""A frozen copy of the store's message-head reader, before it kept parsed field lines.

``octv.store._read_headers`` must agree with ``read_headers`` here on every
head: the same fields, the same bytes left unread, and for a refused head
the same status and text. Do not edit this copy to make a test pass.
"""

import re

MAX_LINE = 65536  # http.client's limits: bytes in one head line,
MAX_HEADERS = 100  # and lines in one head, its blank end line counted
FIELD = re.compile(r"([^\s:]+):[ \t]*(.*)\n")


class HeadError(ValueError):
    """A message head that is refused; ``status`` is what the store answers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_headers(reader) -> dict[str, str]:
    """Read header fields up to the blank line; values by lower-cased name.

    The first of a repeated field counts. A repeated Content-Length, a
    line that is not ``name: value`` (RFC 9112 §5.1 puts no whitespace
    before the colon) and a head cut short by end of stream are errors.
    An obs-fold line continues the previous value.
    """
    headers = {}
    last = None
    readline = reader.readline
    for _ in range(MAX_HEADERS):
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return headers
        field = FIELD.fullmatch(str(line, "latin-1"))
        if field is None:  # no ending newline, an obs-fold line, or not a field
            if not line.endswith(b"\n"):
                raise HeadError(400, "Head cut short")
            text = str(line, "latin-1").rstrip("\r\n")
            if last is None or text[:1] not in (" ", "\t"):
                raise HeadError(400, f"Bad header line ({text[:80]!r})")
            headers[last] = f"{headers[last]} {text.strip()}".lstrip()
            continue
        name, value = field.groups()
        name = name.lower()
        if name not in headers:
            headers[name] = value.rstrip("\r").rstrip(" \t")
            last = name
        elif name == "content-length":
            raise HeadError(400, "Repeated Content-Length")
        else:
            last = None
    raise HeadError(431, "Too many headers")
