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
The ``struct`` layouts below are the one source of these offsets and lengths.
"""

import hashlib
import secrets
import struct
from dataclasses import dataclass
from enum import Enum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import ConfigError, FormatError, IntegrityError
from .protocol import (
    HASH_PREFIX_LEN, KEY_LEN, MAX_CHUNK_COUNT, TOKEN_LEN, VIDEO_ID_LEN, ChunkToken, KeyPacket,
)

MAGIC = b"OCTV"
VERSION = 0x01
SCHEME_SINGLE = 0x01
SCHEME_CHUNKED = 0x02

NONCE_LEN = 12
TAG_LEN = 16
# Container layouts, the one source of every offset and length in a stored file.
_HEADER = struct.Struct(f">{len(MAGIC)}sBB{NONCE_LEN}s")  # magic, version, scheme, nonce
_CHUNK_COUNT = struct.Struct(">H")
_CHUNK_RECORD = struct.Struct(f">HI{NONCE_LEN}s")  # chunk_index, cipher_len, nonce
_CHUNK_INDEX = struct.Struct(">H")  # a chunk key's position input
HEADER_LEN = _HEADER.size - NONCE_LEN  # the part bound as associated data
SINGLE_OVERHEAD = _HEADER.size + TAG_LEN  # 34 bytes
ZERO_HASH_PREFIX = bytes(HASH_PREFIX_LEN)  # first packet's sentinel

# each known scheme -> the IntegrityError message of its outer layer
_AUTH_FAILED = {
    SCHEME_SINGLE: "segment authentication failed: wrong key or tampered data",
    SCHEME_CHUNKED: "outer layer authentication failed: wrong final key or tampered data",
}


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


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise ConfigError(f"segment key must be {KEY_LEN} bytes, got {len(key)}")


def _seal(scheme: int, key: bytes, body: bytes) -> bytes:
    """A ``scheme`` container of ``body`` sealed under ``key``, its header bound as associated data."""
    _check_key(key)
    nonce = secrets.token_bytes(NONCE_LEN)
    header = _HEADER.pack(MAGIC, VERSION, scheme, nonce)
    return header + AESGCM(key).encrypt(nonce, body, header[:HEADER_LEN])


def _open(container: bytes, scheme: int, key: bytes) -> bytes:
    """The body that :func:`_seal` sealed in a ``scheme`` container under ``key``.

    A malformed container is a FormatError; a wrong key or tampered bytes,
    an IntegrityError.
    """
    _check_key(key)
    found = container_scheme(container)
    if found != scheme:
        raise FormatError(f"unexpected scheme {found:#04x}")
    if len(container) < SINGLE_OVERHEAD:
        raise FormatError(f"container too short: {len(container)} bytes")
    nonce = _HEADER.unpack_from(container)[-1]
    view = memoryview(container)  # the ciphertext is read in place, not copied out
    try:
        return AESGCM(key).decrypt(nonce, view[_HEADER.size :], view[:HEADER_LEN])
    except InvalidTag:
        raise IntegrityError(_AUTH_FAILED[scheme]) from None


def container_scheme(container: bytes) -> int:
    """Scheme byte of a container, after validating magic and version."""
    if len(container) < _HEADER.size:
        raise FormatError(f"container too short: {len(container)} bytes")
    magic, version, scheme, _ = _HEADER.unpack_from(container)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version:#04x}")
    if scheme not in _AUTH_FAILED:
        raise FormatError(f"unknown scheme {scheme:#04x}")
    return scheme


def encrypt_segment(plaintext: bytes, key: bytes) -> bytes:
    """Encrypt one segment into a single-key container (scheme 0x01)."""
    return _seal(SCHEME_SINGLE, key, plaintext)


def decrypt_segment(container: bytes, key: bytes) -> bytes:
    """Decrypt a single-key container; FormatError vs IntegrityError are distinct."""
    return _open(container, SCHEME_SINGLE, key)


def derive_chunk_key(token: ChunkToken) -> bytes:
    """Stretch a 16-byte token to a 32-byte chunk key.

    SHA-256(token || video_id || chunk_index as 2-byte BE); deterministic,
    and binds the token to its video and position.
    """
    material = token.token + token.video_id + _CHUNK_INDEX.pack(token.chunk_index)
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
    if not 1 <= chunk_count <= MAX_CHUNK_COUNT:
        raise ConfigError(f"chunk_count must be 1-{MAX_CHUNK_COUNT}, got {chunk_count}")
    if len(tokens) != chunk_count:
        raise ConfigError(f"need {chunk_count} tokens, got {len(tokens)}")
    video_ids = {t.video_id for t in tokens}
    if len(video_ids) != 1:
        raise ConfigError("tokens disagree on video_id")
    if [t.chunk_index for t in tokens] != list(range(chunk_count)):
        raise ConfigError("token chunk indices must be exactly 0..chunk_count-1 in order")

    inner = [_CHUNK_COUNT.pack(chunk_count)]
    for token, (start, end) in zip(tokens, chunk_slices(len(plaintext), chunk_count)):
        nonce = secrets.token_bytes(NONCE_LEN)
        cipher = AESGCM(derive_chunk_key(token)).encrypt(nonce, plaintext[start:end], b"")
        inner += (_CHUNK_RECORD.pack(token.chunk_index, len(cipher), nonce), cipher)
    return _seal(SCHEME_CHUNKED, final_key, b"".join(inner))


def decrypt_segment_chunked(
    container: bytes, final_key: bytes, tokens: list[ChunkToken]
) -> list[tuple[int, bytes | None]]:
    """Open a chunked container with whatever tokens are held.

    Returns one ``(chunk_index, plaintext)`` pair per chunk; ``None``
    marks a chunk that stayed locked for lack of a working token.
    Without ``final_key`` the outer layer fails and nothing is revealed.
    """
    inner = _open(container, SCHEME_CHUNKED, final_key)
    by_index = {t.chunk_index: t for t in tokens}
    if len(inner) < _CHUNK_COUNT.size:
        raise FormatError("chunked body truncated")
    (chunk_count,) = _CHUNK_COUNT.unpack_from(inner)
    view = memoryview(inner)  # each chunk's ciphertext is read in place
    results: list[tuple[int, bytes | None]] = []
    offset = _CHUNK_COUNT.size
    prev_index = -1
    for _ in range(chunk_count):
        if offset + _CHUNK_RECORD.size > len(inner):
            raise FormatError("chunk record truncated")
        index, cipher_len, chunk_nonce = _CHUNK_RECORD.unpack_from(inner, offset)
        offset += _CHUNK_RECORD.size
        if offset + cipher_len > len(inner):
            raise FormatError("chunk ciphertext truncated")
        cipher = view[offset : offset + cipher_len]
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
