"""Segment encryption, the stored container format, and hash chaining.

Container layout (normative, bit-exact):

    offset  size  field
    0       4     magic "OCTV" (0x4f 0x43 0x54 0x56)
    4       1     version, 0x01
    5       1     scheme: 0x01 single-key, 0x02 chunked
    6       12    nonce
    18      n+16  AES-256-GCM ciphertext plus 16-byte tag

The 6-byte header is bound as associated data, so scheme or version
confusion fails authentication rather than yielding garbage. For the
chunked scheme the authenticated body decrypts to an inner record list:

    chunk_count (2 BE), then per chunk:
    chunk_index (2 BE) | cipher_len (4 BE) | nonce (12) | ciphertext+tag

Each inner chunk is encrypted under a key derived from its access token,
so holding k of n tokens (plus the outer key) reveals exactly k slices.
"""

import hashlib
import secrets
import struct
from dataclasses import dataclass
from enum import Enum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import ConfigError, FormatError, IntegrityError
from .protocol import HASH_PREFIX_LEN, KEY_LEN, TOKEN_LEN, VIDEO_ID_LEN, KeyPacket

MAGIC = b"OCTV"
VERSION = 0x01
SCHEME_SINGLE = 0x01
SCHEME_CHUNKED = 0x02

NONCE_LEN = 12
TAG_LEN = 16
HEADER_LEN = 6
SINGLE_OVERHEAD = HEADER_LEN + NONCE_LEN + TAG_LEN  # 34 bytes
ZERO_HASH_PREFIX = bytes(HASH_PREFIX_LEN)  # first packet's sentinel


def generate_key() -> bytes:
    """Fresh 256-bit segment key from the OS CSPRNG."""
    return secrets.token_bytes(KEY_LEN)


def generate_video_id() -> bytes:
    return secrets.token_bytes(VIDEO_ID_LEN)


def generate_token() -> bytes:
    return secrets.token_bytes(TOKEN_LEN)


def hash_prefix(stored_file: bytes) -> bytes:
    """First 21 bytes of the SHA-256 of a stored (encrypted) file."""
    return hashlib.sha256(stored_file).digest()[:HASH_PREFIX_LEN]


def _header(scheme: int) -> bytes:
    return MAGIC + bytes([VERSION, scheme])


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise ConfigError(f"segment key must be {KEY_LEN} bytes, got {len(key)}")


def encrypt_segment(plaintext: bytes, key: bytes) -> bytes:
    """Encrypt one segment into a single-key container (scheme 0x01)."""
    _check_key(key)
    header = _header(SCHEME_SINGLE)
    nonce = secrets.token_bytes(NONCE_LEN)
    body = AESGCM(key).encrypt(nonce, plaintext, header)
    return header + nonce + body


def _open_container(container: bytes, expected_scheme: int) -> tuple[bytes, bytes, bytes]:
    """Validate the header; return (header, nonce, body). Raises FormatError."""
    scheme = container_scheme(container)
    if scheme != expected_scheme:
        raise FormatError(f"unexpected scheme {scheme:#04x}")
    if len(container) < SINGLE_OVERHEAD:
        raise FormatError(f"container too short: {len(container)} bytes")
    return container[:HEADER_LEN], container[HEADER_LEN : HEADER_LEN + NONCE_LEN], container[HEADER_LEN + NONCE_LEN :]


def container_scheme(container: bytes) -> int:
    """Scheme byte of a container, after validating magic and version."""
    if len(container) < HEADER_LEN:
        raise FormatError(f"container too short: {len(container)} bytes")
    if container[:4] != MAGIC:
        raise FormatError(f"bad magic {container[:4]!r}")
    if container[4] != VERSION:
        raise FormatError(f"unsupported version {container[4]:#04x}")
    scheme = container[5]
    if scheme not in (SCHEME_SINGLE, SCHEME_CHUNKED):
        raise FormatError(f"unknown scheme {scheme:#04x}")
    return scheme


def decrypt_segment(container: bytes, key: bytes) -> bytes:
    """Decrypt a single-key container; FormatError vs IntegrityError are distinct."""
    _check_key(key)
    header, nonce, body = _open_container(container, SCHEME_SINGLE)
    try:
        return AESGCM(key).decrypt(nonce, body, header)
    except InvalidTag:
        raise IntegrityError("segment authentication failed: wrong key or tampered data") from None


@dataclass(frozen=True)
class ChunkToken:
    """Short advertised secret unlocking one chunk of a chunked segment.

    Useless on its own: chunk plaintext additionally requires the
    segment's final key for the outer container layer.
    """

    token: bytes
    chunk_index: int
    video_id: bytes

    def __post_init__(self):
        if len(self.token) != TOKEN_LEN:
            raise ValueError(f"token must be {TOKEN_LEN} bytes, got {len(self.token)}")
        if self.chunk_index < 0:
            raise ValueError(f"chunk_index must be >= 0, got {self.chunk_index}")
        if len(self.video_id) != VIDEO_ID_LEN:
            raise ValueError(f"video_id must be {VIDEO_ID_LEN} bytes")


def derive_chunk_key(token: ChunkToken) -> bytes:
    """Stretch a 16-byte token to a 32-byte chunk key.

    SHA-256(token || video_id || chunk_index as 2-byte BE); deterministic,
    and binds the token to its video and position.
    """
    material = token.token + token.video_id + struct.pack(">H", token.chunk_index)
    return hashlib.sha256(material).digest()


def chunk_slices(length: int, chunk_count: int) -> list[tuple[int, int]]:
    """Byte ranges for equal-size chunks; the last chunk takes the remainder."""
    size = -(-length // chunk_count)  # ceil division
    return [(min(i * size, length), min((i + 1) * size, length)) for i in range(chunk_count)]


def encrypt_segment_chunked(
    plaintext: bytes, chunk_count: int, final_key: bytes, tokens: list[ChunkToken]
) -> bytes:
    """Encrypt one segment into a chunked container (scheme 0x02).

    Each chunk is independently encrypted under its token-derived key;
    the concatenated records are then sealed under ``final_key``.
    """
    _check_key(final_key)
    if chunk_count < 1:
        raise ConfigError(f"chunk_count must be >= 1, got {chunk_count}")
    if len(tokens) != chunk_count:
        raise ConfigError(f"need {chunk_count} tokens, got {len(tokens)}")
    video_ids = {t.video_id for t in tokens}
    if len(video_ids) != 1:
        raise ConfigError("tokens disagree on video_id")
    if [t.chunk_index for t in tokens] != list(range(chunk_count)):
        raise ConfigError("token chunk indices must be exactly 0..chunk_count-1 in order")

    inner = bytearray(struct.pack(">H", chunk_count))
    for token, (start, end) in zip(tokens, chunk_slices(len(plaintext), chunk_count)):
        nonce = secrets.token_bytes(NONCE_LEN)
        cipher = AESGCM(derive_chunk_key(token)).encrypt(nonce, plaintext[start:end], b"")
        inner += struct.pack(">HI", token.chunk_index, len(cipher)) + nonce + cipher

    header = _header(SCHEME_CHUNKED)
    outer_nonce = secrets.token_bytes(NONCE_LEN)
    body = AESGCM(final_key).encrypt(outer_nonce, bytes(inner), header)
    return header + outer_nonce + body


def decrypt_segment_chunked(
    container: bytes, final_key: bytes, tokens: list[ChunkToken]
) -> list[tuple[int, bytes | None]]:
    """Open a chunked container with whatever tokens are held.

    Returns one ``(chunk_index, plaintext)`` pair per chunk; ``None``
    marks a chunk that stayed locked for lack of a working token.
    Without ``final_key`` the outer layer fails and nothing is revealed.
    """
    _check_key(final_key)
    header, nonce, body = _open_container(container, SCHEME_CHUNKED)
    try:
        inner = AESGCM(final_key).decrypt(nonce, body, header)
    except InvalidTag:
        raise IntegrityError("outer layer authentication failed: wrong final key or tampered data") from None

    by_index = {t.chunk_index: t for t in tokens}
    if len(inner) < 2:
        raise FormatError("chunked body truncated")
    (chunk_count,) = struct.unpack(">H", inner[:2])
    results: list[tuple[int, bytes | None]] = []
    offset = 2
    prev_index = -1
    for _ in range(chunk_count):
        if offset + 18 > len(inner):
            raise FormatError("chunk record truncated")
        index, cipher_len = struct.unpack(">HI", inner[offset : offset + 6])
        chunk_nonce = inner[offset + 6 : offset + 18]
        offset += 18
        if offset + cipher_len > len(inner):
            raise FormatError("chunk ciphertext truncated")
        cipher = inner[offset : offset + cipher_len]
        offset += cipher_len
        if index <= prev_index:
            raise FormatError(f"chunk indices not strictly increasing at {index}")
        prev_index = index

        token = by_index.get(index)
        plaintext = None
        if token is not None:
            try:
                plaintext = AESGCM(derive_chunk_key(token)).decrypt(chunk_nonce, cipher, b"")
            except InvalidTag:
                plaintext = None  # bad token: chunk stays locked, not fatal
        results.append((index, plaintext))
    if offset != len(inner):
        raise FormatError("trailing bytes after last chunk record")
    return results


class ChainStatus(Enum):
    OK = "ok"
    MISMATCH = "mismatch"
    NO_PREDECESSOR = "no-predecessor"


def chain_verdict(stored_file: bytes, packet: KeyPacket) -> ChainStatus:
    """Verdict on a stored file from the packet that vouches for it.

    That packet is the following segment's; its ``prev_hash_prefix``
    covers the file. The all-zero sentinel starts a chain and vouches
    for nothing.
    """
    if packet.prev_hash_prefix == ZERO_HASH_PREFIX:
        return ChainStatus.NO_PREDECESSOR
    if packet.prev_hash_prefix == hash_prefix(stored_file):
        return ChainStatus.OK
    return ChainStatus.MISMATCH


@dataclass(frozen=True)
class HashChainReport:
    """Per-segment verdicts from a chain walk."""

    statuses: list[ChainStatus]
    first_mismatch: int | None

    @property
    def all_ok(self) -> bool:
        return ChainStatus.MISMATCH not in self.statuses


def verify_chain(items: list[tuple[bytes, KeyPacket]]) -> HashChainReport:
    """Check stored files against the packets that vouch for them.

    Each item pairs a stored container with the key packet of the
    following segment; see :func:`chain_verdict`.
    """
    statuses = [chain_verdict(stored_file, packet) for stored_file, packet in items]
    mismatch = ChainStatus.MISMATCH
    first_mismatch = statuses.index(mismatch) if mismatch in statuses else None
    return HashChainReport(statuses=statuses, first_mismatch=first_mismatch)
