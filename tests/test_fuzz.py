"""Property tests: hostile wallet bytes and hostile camera values.

Each property runs in well under two seconds.
"""

import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import make_descriptor
from octv.client import Listener, Wallet, WalletRecord, export_wallet, import_wallet
from octv.clocks import SimClock
from octv.crypto import ChunkToken, generate_key, generate_video_id
from octv.errors import WalletError
from octv.protocol import (
    CHAR_KEY_PACKET,
    CHAR_LOCATION,
    CHAR_MODE,
    CHAR_NAME,
    CHAR_URL_FORMAT,
    Beacon,
    KeyPacket,
    encode_advertisement,
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
