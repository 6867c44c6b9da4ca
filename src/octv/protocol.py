"""Wire codecs: key packets, characteristics, advertisements, footage URLs.

Every format here is normative and bit-exact; it is the compatibility
surface between cameras, listening clients, and third-party tools.
All multi-byte integers are big-endian.
"""

import contextlib
import functools
import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from urllib.parse import urlsplit

from .errors import ProtocolError

KEY_LEN = 32
VIDEO_ID_LEN = 8
HASH_PREFIX_LEN = 21
CAMERA_ID_LEN = 8
TOKEN_LEN = 16
MAX_CHUNK_COUNT = 0xFFFF  # a chunked body's count and a token advert's chunk index are 2 bytes
MAX_ADVERT_LEN = 31  # legacy advertisement payload budget
FOOTAGE_EXTENSIONS = ("mp4", "jpg")

# Wire layouts, the one source of every offset and length. KeyPacket and
# Beacon list their fields in layout order, after an advert's kind byte; a
# token advert carries ChunkToken's fields reversed, and decode_advertisement
# alone maps them back.
_KEY_PACKET = struct.Struct(f">{KEY_LEN}sBH{VIDEO_ID_LEN}s{HASH_PREFIX_LEN}s")
_BEACON = struct.Struct(f">B{CAMERA_ID_LEN}sB")  # kind, camera_id, seq
_TOKEN_ADVERT = struct.Struct(f">B{VIDEO_ID_LEN}sH{TOKEN_LEN}s")  # kind, video_id, chunk, token
_LOCATION = struct.Struct(">Bdd")  # kind, latitude, longitude

# The one text form of bytes: two hex digits per byte, either case.
_HEX_TEXT = re.compile("(?:[0-9a-fA-F]{2})*")

# Service UUID prefix; characteristics append a 16-bit suffix.
UUID_PREFIX = "cc92cc92-ca19-0000-0000-00000000"

CHAR_NAME = 0x0001
CHAR_MODE = 0x0002
CHAR_LOCATION = 0x0003
CHAR_URL_FORMAT = 0x0004
CHAR_KEY_PACKET = 0x0011
# The descriptor's characteristics, in the order they are read and stored.
DESCRIPTOR_CHARS = (CHAR_NAME, CHAR_MODE, CHAR_LOCATION, CHAR_URL_FORMAT)
# Extension beyond the base descriptor table: key packet for the
# reduced-rate base-tier stream, present only when tiering is enabled.
CHAR_TIER_KEY_PACKET = 0x0012

ADV_KIND_BEACON = 0x01
ADV_KIND_TOKEN = 0x02

LOC_KIND_COORDINATES = 0x00
LOC_KIND_TEXT = 0x01


class Mode(IntEnum):
    """Footage availability policy; values are the wire encoding."""

    AUTO = 0x00
    MANUAL = 0x01
    DELAYED = 0x02

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ProtocolError(f"unknown mode {name!r}") from None


@dataclass(frozen=True)
class Coordinates:
    """Camera placement in degrees latitude/longitude."""

    lat: float
    lon: float


@dataclass(frozen=True)
class KeyPacket:
    """The 64-byte broadcast unit granting access to one segment; fields in wire order."""

    key: bytes
    seq: int
    reconnect_interval_s: int
    video_id: bytes
    prev_hash_prefix: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes, got {len(self.key)}")
        if not 0 <= self.seq <= 0xFF:
            raise ValueError(f"seq out of range: {self.seq}")
        if not 0 <= self.reconnect_interval_s <= 0xFFFF:
            raise ValueError(f"reconnect_interval_s out of range: {self.reconnect_interval_s}")
        if len(self.video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes, got {len(self.video_id)}")
        if len(self.prev_hash_prefix) != HASH_PREFIX_LEN:
            raise ValueError(
                f"prev_hash_prefix must be {HASH_PREFIX_LEN} bytes, got {len(self.prev_hash_prefix)}"
            )


def encode_key_packet(packet: KeyPacket) -> bytes:
    """Serialize a key packet to its exact 64-byte wire form."""
    return _KEY_PACKET.pack(packet.key, packet.seq, packet.reconnect_interval_s,
                            packet.video_id, packet.prev_hash_prefix)


def decode_key_packet(data: bytes) -> KeyPacket:
    """Parse a 64-byte wire packet; inverse of :func:`encode_key_packet`."""
    if len(data) != _KEY_PACKET.size:
        raise ProtocolError(f"key packet must be {_KEY_PACKET.size} bytes, got {len(data)}")
    return KeyPacket(*_KEY_PACKET.unpack(data))


def characteristic_uuid(suffix: int) -> str:
    """Full characteristic UUID for a 16-bit suffix, canonical lowercase form."""
    if not 0 <= suffix <= 0xFFFF:
        raise ProtocolError(f"characteristic suffix out of 16-bit range: {suffix:#x}")
    return f"{UUID_PREFIX}{suffix:04x}"


@dataclass(frozen=True)
class CameraDescriptor:
    """Discoverable camera metadata served via characteristics.

    ``location`` is either :class:`Coordinates` or a free-text placement
    description. ``url_template`` must contain exactly one ``{id}``
    placeholder and must produce a URL ending in .mp4 or .jpg.
    """

    name: str
    mode: Mode
    location: "Coordinates | str"
    url_template: str

    def __post_init__(self):
        encoded = self.name.encode("utf-8")
        if not 1 <= len(encoded) <= 64:
            raise ValueError(f"name must be 1-64 UTF-8 bytes, got {len(encoded)}")
        if isinstance(self.location, str) and len(self.location.encode("utf-8")) > 256:
            raise ValueError("location description exceeds 256 UTF-8 bytes")
        url_extension(self.url_template)


@functools.lru_cache  # a template is formatted into every URL; a refusal is not kept
def url_extension(template: str) -> str:
    """Validate a URL template; return the footage extension its URL path ends in."""
    if template.count("{id}") != 1:
        raise ProtocolError(
            f"url template must contain exactly one '{{id}}' placeholder: {template!r}"
        )
    parts = urlsplit(template.replace("{id}", "0" * (2 * VIDEO_ID_LEN)))
    if not parts.scheme:
        raise ProtocolError(f"url template does not form a valid URL: {template!r}")
    _, dot, extension = parts.path.rpartition(".")
    if not dot or extension not in FOOTAGE_EXTENSIONS:
        raise ProtocolError(f"url template extension must be .mp4 or .jpg: {template!r}")
    return extension


def parse_hex(text: str) -> bytes:
    """The bytes whose text form is ``text``: hex digit pairs only, either case."""
    if not _HEX_TEXT.fullmatch(text):
        raise ProtocolError(f"not valid hex: {text!r}")
    return bytes.fromhex(text)


def parse_video_id(text: str) -> bytes:
    """The video id whose text form is ``text``: exactly 16 hex digits, either case."""
    if len(text) == 2 * VIDEO_ID_LEN:
        with contextlib.suppress(ProtocolError):
            return parse_hex(text)
    raise ProtocolError(f"video id must be {2 * VIDEO_ID_LEN} hex digits, got {text!r}")


def format_video_url(template: str, video_id: bytes) -> str:
    """Substitute the 16-hex-char video id into the URL template."""
    url_extension(template)
    if len(video_id) != VIDEO_ID_LEN:
        raise ProtocolError(f"video_id must be {VIDEO_ID_LEN} bytes, got {len(video_id)}")
    return template.replace("{id}", video_id.hex())


def parse_video_url(url: str, template: str) -> bytes:
    """Recover the video id from a URL built with :func:`format_video_url`."""
    url_extension(template)
    prefix, suffix = template.split("{id}")
    if not (url.startswith(prefix) and url.endswith(suffix)):
        raise ProtocolError(f"url does not match template: {url!r}")
    return parse_video_id(url.removeprefix(prefix).removesuffix(suffix))


def encode_characteristic(descriptor: CameraDescriptor, which: int) -> bytes:
    """Serialize one descriptor field for its characteristic.

    ``which`` is the characteristic suffix (CHAR_NAME, CHAR_MODE,
    CHAR_LOCATION or CHAR_URL_FORMAT).
    """
    if which == CHAR_NAME:
        return descriptor.name.encode("utf-8")
    if which == CHAR_MODE:
        return bytes([descriptor.mode])
    if which == CHAR_LOCATION:
        loc = descriptor.location
        if isinstance(loc, Coordinates):
            return _LOCATION.pack(LOC_KIND_COORDINATES, loc.lat, loc.lon)
        return bytes([LOC_KIND_TEXT]) + loc.encode("utf-8")
    if which == CHAR_URL_FORMAT:
        return descriptor.url_template.encode("utf-8")
    raise ProtocolError(f"no encoder for characteristic {which:#06x}")


def decode_characteristic(which: int, data: bytes):
    """Inverse of :func:`encode_characteristic` for one field."""
    if which == CHAR_NAME:
        return _decode_utf8(data, "name")
    if which == CHAR_MODE:
        if len(data) != 1:
            raise ProtocolError(f"mode value must be 1 byte, got {len(data)}")
        try:
            return Mode(data[0])
        except ValueError:
            raise ProtocolError(f"unknown mode byte {data[0]:#04x}") from None
    if which == CHAR_LOCATION:
        if not data:
            raise ProtocolError("empty location value")
        kind = data[0]
        if kind == LOC_KIND_COORDINATES:
            if len(data) != _LOCATION.size:
                raise ProtocolError(f"location must be {_LOCATION.size} bytes, got {len(data)}")
            return Coordinates(*_LOCATION.unpack(data)[1:])
        if kind == LOC_KIND_TEXT:
            return _decode_utf8(data[1:], "location")
        raise ProtocolError(f"unknown location kind byte {kind:#04x}")
    if which == CHAR_URL_FORMAT:
        return _decode_utf8(data, "url template")
    raise ProtocolError(f"no decoder for characteristic {which:#06x}")


def _decode_utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in {what}: {exc}") from None


@dataclass(frozen=True)
class Beacon:
    """Periodic presence advertisement naming the camera and current seq."""

    camera_id: bytes
    seq: int

    def __post_init__(self):
        if len(self.camera_id) != CAMERA_ID_LEN:
            raise ValueError(f"camera_id must be {CAMERA_ID_LEN} bytes")
        if not 0 <= self.seq <= 0xFF:
            raise ValueError(f"seq out of range: {self.seq}")


@dataclass(frozen=True)
class ChunkToken:
    """Short advertised secret unlocking one chunk of a chunked segment.

    Useless on its own: chunk plaintext additionally requires the
    segment's final key for the outer container layer. Its advert carries
    no camera id: a full token advert would be 35 bytes and blow the
    31-byte budget, so the camera is identified by the transport sender
    address instead.
    """

    token: bytes
    chunk_index: int
    video_id: bytes

    def __post_init__(self):
        if len(self.token) != TOKEN_LEN:
            raise ValueError(f"token must be {TOKEN_LEN} bytes, got {len(self.token)}")
        if not 0 <= self.chunk_index <= 0xFFFF:
            raise ValueError(f"chunk_index out of range: {self.chunk_index}")
        if len(self.video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes")


Advertisement = Beacon | ChunkToken


def encode_advertisement(adv: Advertisement) -> bytes:
    """Serialize an advertisement; result always fits the 31-byte budget."""
    if isinstance(adv, Beacon):
        return _BEACON.pack(ADV_KIND_BEACON, adv.camera_id, adv.seq)
    if isinstance(adv, ChunkToken):
        return _TOKEN_ADVERT.pack(ADV_KIND_TOKEN, adv.video_id, adv.chunk_index, adv.token)
    raise ProtocolError(f"unknown advertisement type {type(adv).__name__}")


# advert kind byte -> the advert's class and layout
_ADVERTS = {ADV_KIND_BEACON: (Beacon, _BEACON), ADV_KIND_TOKEN: (ChunkToken, _TOKEN_ADVERT)}


def decode_advertisement(data: bytes) -> Advertisement:
    """Parse an advertisement payload; inverse of :func:`encode_advertisement`."""
    if not data:
        raise ProtocolError("empty advertisement")
    if data[0] not in _ADVERTS:
        raise ProtocolError(f"unknown advertisement kind byte {data[0]:#04x}")
    cls, layout = _ADVERTS[data[0]]
    if len(data) != layout.size:
        raise ProtocolError(f"{cls.__name__} advert must be {layout.size} bytes, got {len(data)}")
    fields = layout.unpack(data)[1:]
    if cls is ChunkToken:  # (video_id, chunk_index, token) on the wire
        fields = fields[::-1]
    return cls(*fields)
