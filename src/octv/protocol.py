"""Wire codecs: key packets, characteristics, advertisements, footage URLs.

Every format here is normative and bit-exact; it is the compatibility
surface between cameras, listening clients, and third-party tools.
All multi-byte integers are big-endian.
"""

import struct
from dataclasses import dataclass
from enum import IntEnum
from urllib.parse import urlsplit

from .errors import ProtocolError

KEY_PACKET_LEN = 64
KEY_LEN = 32
VIDEO_ID_LEN = 8
HASH_PREFIX_LEN = 21
CAMERA_ID_LEN = 8
TOKEN_LEN = 16
MAX_ADVERT_LEN = 31  # legacy advertisement payload budget

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
    """The 64-byte broadcast unit granting access to one segment.

    Layout: key (0-31), seq (32), reconnect_interval_s (33-34, BE),
    video_id (35-42), prev_hash_prefix (43-63).
    """

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
    return (
        packet.key
        + struct.pack(">BH", packet.seq, packet.reconnect_interval_s)
        + packet.video_id
        + packet.prev_hash_prefix
    )


def decode_key_packet(data: bytes) -> KeyPacket:
    """Parse a 64-byte wire packet; inverse of :func:`encode_key_packet`."""
    if len(data) != KEY_PACKET_LEN:
        raise ProtocolError(f"malformed key packet: expected 64 bytes, got {len(data)}")
    seq, ri = struct.unpack(">BH", data[32:35])
    return KeyPacket(
        key=bytes(data[0:32]),
        seq=seq,
        reconnect_interval_s=ri,
        video_id=bytes(data[35:43]),
        prev_hash_prefix=bytes(data[43:64]),
    )


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
        _validate_url_template(self.url_template)


def _validate_url_template(template: str) -> None:
    if template.count("{id}") != 1:
        raise ProtocolError(
            f"url template must contain exactly one '{{id}}' placeholder: {template!r}"
        )
    sample = template.replace("{id}", "0" * 16)
    parts = urlsplit(sample)
    if not parts.scheme:
        raise ProtocolError(f"url template does not form a valid URL: {template!r}")
    if not (parts.path.endswith(".mp4") or parts.path.endswith(".jpg")):
        raise ProtocolError(f"url template extension must be .mp4 or .jpg: {template!r}")


def format_video_url(template: str, video_id: bytes) -> str:
    """Substitute the 16-hex-char video id into the URL template."""
    _validate_url_template(template)
    if len(video_id) != VIDEO_ID_LEN:
        raise ProtocolError(f"video_id must be {VIDEO_ID_LEN} bytes, got {len(video_id)}")
    return template.replace("{id}", video_id.hex())


def parse_video_url(url: str, template: str) -> bytes:
    """Recover the video id from a URL built with :func:`format_video_url`."""
    _validate_url_template(template)
    prefix, suffix = template.split("{id}")
    if not (url.startswith(prefix) and url.endswith(suffix)):
        raise ProtocolError(f"url does not match template: {url!r}")
    middle = url[len(prefix) : len(url) - len(suffix)] if suffix else url[len(prefix) :]
    if len(middle) != 2 * VIDEO_ID_LEN:
        raise ProtocolError(f"video id field must be 16 hex chars, got {len(middle)}")
    try:
        return bytes.fromhex(middle)
    except ValueError:
        raise ProtocolError(f"video id field is not hex: {middle!r}") from None


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
            return bytes([LOC_KIND_COORDINATES]) + struct.pack(">dd", loc.lat, loc.lon)
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
        kind, rest = data[0], data[1:]
        if kind == LOC_KIND_COORDINATES:
            if len(rest) != 16:
                raise ProtocolError(f"coordinates need 16 bytes, got {len(rest)}")
            lat, lon = struct.unpack(">dd", rest)
            return Coordinates(lat, lon)
        if kind == LOC_KIND_TEXT:
            return _decode_utf8(rest, "location")
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
class TokenAnnouncement:
    """Fine-grained chunk token advertisement.

    Carries no camera id: a full token advert would be 35 bytes and blow
    the 31-byte budget, so the camera is identified by the transport
    sender address instead.
    """

    video_id: bytes
    chunk_index: int
    token: bytes

    def __post_init__(self):
        if len(self.video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes")
        if not 0 <= self.chunk_index <= 0xFFFF:
            raise ValueError(f"chunk_index out of range: {self.chunk_index}")
        if len(self.token) != TOKEN_LEN:
            raise ValueError(f"token must be {TOKEN_LEN} bytes")


Advertisement = Beacon | TokenAnnouncement


def encode_advertisement(adv: Advertisement) -> bytes:
    """Serialize an advertisement; result always fits the 31-byte budget."""
    if isinstance(adv, Beacon):
        return bytes([ADV_KIND_BEACON]) + adv.camera_id + bytes([adv.seq])
    if isinstance(adv, TokenAnnouncement):
        return (
            bytes([ADV_KIND_TOKEN])
            + adv.video_id
            + struct.pack(">H", adv.chunk_index)
            + adv.token
        )
    raise ProtocolError(f"unknown advertisement type {type(adv).__name__}")


def decode_advertisement(data: bytes) -> Advertisement:
    """Parse an advertisement payload; inverse of :func:`encode_advertisement`."""
    if not data:
        raise ProtocolError("empty advertisement")
    kind = data[0]
    if kind == ADV_KIND_BEACON:
        if len(data) != 10:
            raise ProtocolError(f"beacon advert must be 10 bytes, got {len(data)}")
        return Beacon(camera_id=bytes(data[1:9]), seq=data[9])
    if kind == ADV_KIND_TOKEN:
        if len(data) != 27:
            raise ProtocolError(f"token advert must be 27 bytes, got {len(data)}")
        (chunk_index,) = struct.unpack(">H", data[9:11])
        return TokenAnnouncement(
            video_id=bytes(data[1:9]), chunk_index=chunk_index, token=bytes(data[11:27])
        )
    raise ProtocolError(f"unknown advertisement kind byte {kind:#04x}")
