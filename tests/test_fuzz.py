"""Property tests: hostile wallet bytes, hostile camera values, and hostile
bytes for each wire decoder.

Each property runs in well under two seconds.
"""

import struct
import tempfile
from pathlib import Path

from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import make_descriptor
from octv.client import (
    Listener,
    Wallet,
    WalletRecord,
    decode_descriptor_blob,
    encode_descriptor_blob,
    export_wallet,
    import_wallet,
)
from octv.clocks import SimClock
from octv.crypto import (
    MAGIC,
    NONCE_LEN,
    SCHEME_CHUNKED,
    VERSION,
    ChunkToken,
    decrypt_segment_chunked,
    derive_chunk_key,
    generate_key,
    generate_video_id,
)
from octv.errors import OctvError, WalletError
from octv.protocol import (
    CHAR_KEY_PACKET,
    CHAR_LOCATION,
    CHAR_MODE,
    CHAR_NAME,
    CHAR_URL_FORMAT,
    DESCRIPTOR_CHARS,
    Beacon,
    CameraDescriptor,
    KeyPacket,
    decode_advertisement,
    decode_key_packet,
    encode_advertisement,
    encode_key_packet,
)

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _valid_wallet_bytes() -> tuple[bytes, list[KeyPacket]]:
    wallet = Wallet()
    packets = []
    for seq in range(3):
        packet = KeyPacket(generate_key(), seq, 60, generate_video_id(), bytes(21))
        wallet.ingest(WalletRecord(seq * 60.0, b"\xca" + bytes(5), make_descriptor(), packet))
        packets.append(packet)
    wallet.add_token(ChunkToken(bytes(16), 1, packets[0].video_id), 1.0)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "wallet.txt"
        export_wallet(wallet, None, path)
        return path.read_bytes(), packets


VALID_WALLET, VALID_PACKETS = _valid_wallet_bytes()
# noise, or a valid line cut anywhere (a torn append, or a whole duplicate line)
TAILS = st.binary(max_size=100) | st.tuples(
    st.sampled_from(VALID_WALLET.splitlines(keepends=True)[1:]), st.integers(0, 400)
).map(lambda p: p[0][: p[1]])


def _load(loader, path):
    try:
        wallet = loader(path)
    except WalletError:
        return None
    wallet.close()
    assert [r.packet for r in wallet.records[: len(VALID_PACKETS)]] == VALID_PACKETS
    return [r.packet for r in wallet.records], wallet.token_receipts()


@FUZZ
@given(tail=st.lists(TAILS, max_size=3).map(b"".join))
def test_appended_bytes_load_or_raise_wallet_error(tail):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "wallet.txt"
        path.write_bytes(VALID_WALLET + tail)
        imported = _load(import_wallet, path)
        assert path.read_bytes() == VALID_WALLET + tail
        opened = _load(Wallet, path)
        assert opened == imported


def _text(max_size, **kwargs):
    return st.text(max_size=max_size, **kwargs).map(lambda s: s.encode("utf-8"))


WELL_FORMED = st.fixed_dictionaries({
    CHAR_NAME: _text(16, min_size=1),
    CHAR_MODE: st.sampled_from([b"\x00", b"\x01", b"\x02"]),
    CHAR_LOCATION: st.tuples(st.floats(), st.floats()).map(lambda c: b"\x00" + struct.pack(">dd", *c))
    | _text(64).map(lambda s: b"\x01" + s),
    CHAR_URL_FORMAT: st.tuples(_text(12, alphabet="ab.-_"), st.sampled_from([b".mp4", b".jpg"])).map(
        lambda p: b"https://x" + p[0] + b"/{id}" + p[1]),
    CHAR_KEY_PACKET: st.binary(min_size=64, max_size=64),
})
# a well-formed camera with up to two values replaced by anything
CHARACTERISTICS = st.tuples(WELL_FORMED, st.dictionaries(
    st.sampled_from([CHAR_NAME, CHAR_MODE, CHAR_LOCATION, CHAR_URL_FORMAT, CHAR_KEY_PACKET]),
    st.binary(max_size=300) | _text(300), max_size=2,
)).map(lambda p: {**p[0], **p[1]})


class _Camera:
    """A peer that serves whatever values it was given."""

    def __init__(self, values):
        self.values = values

    def on_advertisement(self, callback):
        pass

    def read_characteristic(self, address, suffix):
        return self.values[suffix]


@FUZZ
@given(values=CHARACTERISTICS, seq=st.integers(0, 255))
def test_hostile_characteristics_never_raise(values, seq):
    wallet = Wallet()
    listener = Listener(wallet, _Camera(values), SimClock(0.0))
    listener._on_advertisement(b"\xca" + bytes(5), encode_advertisement(Beacon(bytes(8), seq)), 0.0)
    if wallet.records:  # what the listener accepted, the wallet file holds
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "wallet.txt"
            export_wallet(wallet, None, path)
            assert import_wallet(path).records[0].packet == wallet.records[0].packet


def _valid_or_octv_error(decode, data):
    """What ``decode`` returns for ``data``, or None when it raises an OctvError."""
    try:
        return decode(data)
    except OctvError:
        return None


# noise, or a well-formed kind byte with a body of any length
ADVERTS = st.binary(max_size=40) | st.tuples(
    st.sampled_from([b"\x01", b"\x02"]), st.binary(max_size=30)).map(b"".join)


@FUZZ
@given(data=ADVERTS)
def test_advertisement_decodes_or_raises_octv_error(data):
    advert = _valid_or_octv_error(decode_advertisement, data)
    if advert is not None:  # a fixed-length format: what decodes, encodes back the same
        assert encode_advertisement(advert) == data


@FUZZ
@given(data=st.binary(max_size=80) | st.binary(min_size=64, max_size=64))
def test_key_packet_decodes_or_raises_octv_error(data):
    packet = _valid_or_octv_error(decode_key_packet, data)
    if packet is not None:
        assert encode_key_packet(packet) == data


def _blob(values: list[bytes]) -> bytes:
    return b"".join(struct.pack(">H", len(v)) + v for v in values)


VALID_BLOB = encode_descriptor_blob(make_descriptor())
# noise; a valid blob cut, or with bytes appended; or well-formed and hostile
# characteristic values behind well-formed, or any, length prefixes
BLOBS = (st.binary(max_size=120)
         | st.tuples(st.integers(0, len(VALID_BLOB)), st.binary(max_size=8)).map(
             lambda p: VALID_BLOB[: p[0]] + p[1])
         | CHARACTERISTICS.map(lambda v: _blob([v[c] for c in DESCRIPTOR_CHARS]))
         | st.lists(st.binary(max_size=40), max_size=5).map(_blob))


@FUZZ
@given(blob=BLOBS)
def test_descriptor_blob_decodes_or_raises_octv_error(blob):
    descriptor = _valid_or_octv_error(decode_descriptor_blob, blob)
    assert descriptor is None or isinstance(descriptor, CameraDescriptor)


FINAL_KEY = bytes(range(32))
CHUNK_TOKENS = [ChunkToken(bytes([i + 1]) * 16, i, bytes(8)) for i in range(3)]
# a chunk sealed under its held token's key, or bytes that open under none
CHUNK_CIPHERS = st.tuples(st.integers(0, 4), st.binary(max_size=40)) | st.tuples(
    st.integers(0, 2), st.binary(max_size=24)).map(lambda p: (p[0], AESGCM(
        derive_chunk_key(CHUNK_TOKENS[p[0]])).encrypt(bytes(NONCE_LEN), p[1], b"")))
# one inner record, its cipher_len right or off by up to two bytes either way
RECORDS = st.tuples(CHUNK_CIPHERS, st.just(0) | st.integers(-2, 2)).map(
    lambda p: struct.pack(">HI", p[0][0], max(0, len(p[0][1]) + p[1]))
    + bytes(NONCE_LEN) + p[0][1])
# noise, or records behind a chunk_count of one fewer to one more than they are,
# with or without trailing bytes
INNERS = st.binary(max_size=120) | st.tuples(
    st.lists(RECORDS, max_size=4), st.integers(-1, 1), st.just(b"") | st.binary(max_size=4)
).map(lambda p: struct.pack(">H", max(0, len(p[0]) + p[1])) + b"".join(p[0]) + p[2])
# the outer layer as encrypt_segment_chunked seals it: the header bound as associated data
CHUNKED_HEADER = MAGIC + bytes([VERSION, SCHEME_CHUNKED])


@FUZZ
@given(inner=INNERS)
def test_sealed_inner_records_decode_or_raise_octv_error(inner):
    """Past a valid outer seal, the inner record list is the parser's only input."""
    nonce = bytes(NONCE_LEN)
    sealed = AESGCM(FINAL_KEY).encrypt(nonce, inner, CHUNKED_HEADER)
    container = CHUNKED_HEADER + nonce + sealed
    chunks = _valid_or_octv_error(
        lambda c: decrypt_segment_chunked(c, FINAL_KEY, CHUNK_TOKENS), container)
    if chunks is not None:
        assert len(chunks) == struct.unpack(">H", inner[:2])[0]
        indices = [index for index, _ in chunks]
        assert indices == sorted(set(indices))
        assert all(plain is None or index < len(CHUNK_TOKENS) for index, plain in chunks)
