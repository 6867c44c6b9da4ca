"""Open-circuit television: cameras whose footage keys go to their subjects.

Cameras encrypt at point of capture, rotate keys every segment, chain
segment hashes for tamper evidence, and broadcast per-segment keys to
anonymous listeners nearby; footage is published as opaque ciphertext.
"""

from .crypto import (
    ChainStatus,
    ChunkToken,
    HashChainReport,
    decrypt_segment,
    decrypt_segment_chunked,
    derive_chunk_key,
    encrypt_segment,
    encrypt_segment_chunked,
    generate_key,
    generate_token,
    generate_video_id,
    hash_prefix,
    verify_chain,
)
from .errors import (
    ConfigError,
    ConflictError,
    FormatError,
    IntegrityError,
    InvalidModeError,
    NoSuchCharacteristicError,
    NotFoundError,
    OctvError,
    ProtocolError,
    UnreachableError,
    WalletError,
)
from .protocol import (
    Beacon,
    CameraDescriptor,
    Coordinates,
    KeyPacket,
    Mode,
    characteristic_uuid,
    decode_advertisement,
    decode_key_packet,
    encode_advertisement,
    encode_key_packet,
    format_video_url,
    parse_video_url,
)

__version__ = "0.1.0"
