"""Listening client: key wallet, proximity sessions, fetch and local decrypt.

The wallet is an append-only line-delimited text file (versioned header,
CRC per line) so captures survive restarts and can be audited or moved
between devices. Decryption happens entirely in-process: nothing but
characteristic reads and footage GETs ever leaves the client.
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass

from . import crypto
from .crypto import ChainStatus
from .errors import (
    IntegrityError,
    NoSuchCharacteristicError,
    NotFoundError,
    ProtocolError,
    UnreachableError,
    WalletError,
)
from .protocol import (
    CHAR_KEY_PACKET,
    DESCRIPTOR_CHARS,
    Beacon,
    CameraDescriptor,
    ChunkToken,
    Coordinates,
    KeyPacket,
    decode_advertisement,
    decode_characteristic,
    decode_key_packet,
    encode_characteristic,
    encode_key_packet,
    format_video_url,
)

WALLET_HEADER = "octv-wallet 1"
_VALUE_LEN = struct.Struct(">H")  # the length before each value of a descriptor blob


def encode_descriptor_blob(descriptor: CameraDescriptor) -> bytes:
    """Length-prefixed concatenation of the four characteristic encodings."""
    parts = []
    for which in DESCRIPTOR_CHARS:
        value = encode_characteristic(descriptor, which)
        parts.append(_VALUE_LEN.pack(len(value)) + value)
    return b"".join(parts)


def _descriptor_from_values(values: list[bytes]) -> CameraDescriptor:
    """The descriptor served as these DESCRIPTOR_CHARS values; a bad one is a ProtocolError."""
    if any(len(value) > 0xFFFF for value in values):  # the wallet stores a 2-byte length
        raise ProtocolError("descriptor value longer than 65535 bytes")
    name, mode, location, url_template = (
        decode_characteristic(which, value) for which, value in zip(DESCRIPTOR_CHARS, values)
    )
    try:
        return CameraDescriptor(name=name, mode=mode, location=location, url_template=url_template)
    except ValueError as exc:
        raise ProtocolError(f"invalid camera descriptor: {exc}") from None


def decode_descriptor_blob(blob: bytes) -> CameraDescriptor:
    values = []
    offset = 0
    for _ in DESCRIPTOR_CHARS:
        if offset + _VALUE_LEN.size > len(blob):
            raise ProtocolError("descriptor blob truncated")
        (length,) = _VALUE_LEN.unpack_from(blob, offset)
        offset += _VALUE_LEN.size
        if offset + length > len(blob):
            raise ProtocolError("descriptor blob truncated")
        values.append(blob[offset : offset + length])
        offset += length
    if offset != len(blob):
        raise ProtocolError("trailing bytes in descriptor blob")
    return _descriptor_from_values(values)


@dataclass
class WalletRecord:
    """One captured key packet with its receipt context."""

    received_at: float
    camera_address: bytes
    descriptor: CameraDescriptor
    packet: KeyPacket


def _record_line(record: WalletRecord) -> str:
    body = (
        f"R {record.received_at!r} {record.camera_address.hex()} "
        f"{encode_descriptor_blob(record.descriptor).hex()} "
        f"{encode_key_packet(record.packet).hex()}"
    )
    return f"{body} {zlib.crc32(body.encode('ascii')):08x}"


def _token_line(received_at: float, token: ChunkToken) -> str:
    body = (
        f"T {received_at!r} {token.video_id.hex()} {token.chunk_index} {token.token.hex()}"
    )
    return f"{body} {zlib.crc32(body.encode('ascii')):08x}"


class Wallet:
    """Append-only store of captured key packets and chunk tokens.

    A ``path`` of ``None`` keeps the wallet in memory (used for imports
    and tests); otherwise every accepted record hits disk before the
    ingest call returns. ``records`` lists every record in ingest order;
    ``by_camera`` lists the same records per camera address, in that order,
    and ``_by_seq`` per (camera address, seq), in that order too.
    """

    def __init__(self, path=None):
        self.path = str(path) if path is not None else None
        self.records: list[WalletRecord] = []
        self.by_camera: dict[bytes, list[WalletRecord]] = {}
        self._by_seq: dict[tuple[bytes, int], list[WalletRecord]] = {}
        self._index: set[tuple[bytes, bytes, int]] = set()
        self._tokens: dict[bytes, dict[int, ChunkToken]] = {}
        self._token_times: dict[tuple[bytes, int], float] = {}
        self._fh = None
        if self.path is not None:
            self._open()

    def _open(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(WALLET_HEADER + "\n")
            self._fh.flush()
            return
        kept = self._load(data, source=self.path)
        if kept < len(data):
            os.truncate(self.path, kept)  # appends must start on a fresh line
        self._fh = open(self.path, "a", encoding="utf-8")

    def _load(self, data: bytes, source: str) -> int:
        """Parse the lines of a wallet file; returns the length parsed.

        An unterminated last line is an append cut short by a crash.
        Lines are fsynced before they are acknowledged, so it was never
        acknowledged: it is skipped, once the lines before it check out.
        A byte that is not UTF-8 decodes to U+FFFD and fails its line.
        """
        kept = data.rfind(b"\n") + 1
        # lines end at "\n" alone, less one "\r" (CRLF): splitlines() breaks at more
        lines = data[:kept].decode("utf-8", errors="replace").replace("\r\n", "\n").split("\n")
        if lines[0] != WALLET_HEADER:
            raise WalletError(f"{source}: line 1: missing wallet header")
        descriptors: dict[str, CameraDescriptor] = {}  # by blob hex, decoded once per load
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                body, _, crc_text = line.rpartition(" ")
                if f"{zlib.crc32(body.encode('ascii')):08x}" != crc_text:
                    raise ValueError("checksum mismatch")
                parts = body.split(" ")
                if parts[0] == "R":
                    _, received_at, address, descriptor_hex, packet_hex = parts
                    descriptor = descriptors.get(descriptor_hex)
                    if descriptor is None:  # a bad blob raises here and is never kept
                        descriptor = decode_descriptor_blob(bytes.fromhex(descriptor_hex))
                        descriptors[descriptor_hex] = descriptor
                    record = WalletRecord(
                        received_at=float(received_at),
                        camera_address=bytes.fromhex(address),
                        descriptor=descriptor,
                        packet=decode_key_packet(bytes.fromhex(packet_hex)),
                    )
                    self._add_record(record)
                elif parts[0] == "T":
                    _, received_at, video_hex, index, token_hex = parts
                    token = ChunkToken(
                        token=bytes.fromhex(token_hex),
                        chunk_index=int(index),
                        video_id=bytes.fromhex(video_hex),
                    )
                    self._add_token(token, float(received_at))
                else:
                    raise ValueError(f"unknown record type {parts[0]!r}")
            except (ValueError, IndexError, ProtocolError) as exc:
                raise WalletError(f"{source}: line {lineno}: {exc}") from None
        return kept

    def _add_record(self, record: WalletRecord, persist: bool = False) -> bool:
        """Hold ``record`` unless already held; with ``persist``, on disk first."""
        key = (record.camera_address, record.packet.video_id, record.packet.seq)
        if key in self._index:
            return False
        if persist:
            self._append_line(_record_line(record))
        self._index.add(key)
        self.records.append(record)
        self.by_camera.setdefault(record.camera_address, []).append(record)
        self._by_seq.setdefault((record.camera_address, record.packet.seq), []).append(record)
        return True

    def _add_token(self, token: ChunkToken, received_at: float, persist: bool = False) -> bool:
        """Hold ``token`` unless already held; with ``persist``, on disk first."""
        per_video = self._tokens.setdefault(token.video_id, {})
        if token.chunk_index in per_video:
            return False
        if persist:
            self._append_line(_token_line(received_at, token))
        per_video[token.chunk_index] = token
        self._token_times[(token.video_id, token.chunk_index)] = received_at
        return True

    def _append_line(self, line: str) -> None:
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise WalletError(f"cannot persist to {self.path}: {exc}") from None

    def ingest(self, record: WalletRecord) -> bool:
        """Add a record; persisted before acknowledgment. False on duplicate."""
        return self._add_record(record, persist=self._fh is not None)

    def add_token(self, token: ChunkToken, received_at: float) -> bool:
        """Add a chunk token; persisted before acknowledgment. False on duplicate."""
        return self._add_token(token, received_at, persist=self._fh is not None)

    def token_receipts(self) -> list[tuple[float, ChunkToken]]:
        """Every held token with its receipt time, in the order received."""
        return [(t, self._tokens[video_id][index]) for (video_id, index), t in self._token_times.items()]

    def tokens_for(self, video_id: bytes) -> list[ChunkToken]:
        per_video = self._tokens.get(video_id, {})
        return [per_video[i] for i in sorted(per_video)]

    def record_for_video(self, video_id: bytes) -> WalletRecord | None:
        for record in self.records:
            if record.packet.video_id == video_id:
                return record
        return None

    def successor_of(self, record: WalletRecord) -> WalletRecord | None:
        """The record whose packet vouches for ``record``'s stored file.

        The next segment's packet is on the air within two reconnect
        intervals of this one's receipt; a later packet with the next
        ``seq`` belongs to another lap of the 256-value counter.
        """
        earliest = record.received_at
        latest = earliest + 2 * record.packet.reconnect_interval_s
        found = None
        # the earliest in one pass; of records received at the same instant, the first
        for r in self._by_seq.get((record.camera_address, (record.packet.seq + 1) % 256), ()):
            at = r.received_at
            if earliest <= at <= latest and (found is None or at < found.received_at):
                found = r
        return found

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def export_wallet(wallet: Wallet, time_range: tuple[float, float] | None, path) -> int:
    """Write records in ``time_range`` (inclusive start, exclusive end).

    Returns the number of lines written (excluding the header).
    """

    def in_range(t: float) -> bool:
        return time_range is None or time_range[0] <= t < time_range[1]

    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(WALLET_HEADER + "\n")
        for record in wallet.records:
            if in_range(record.received_at):
                fh.write(_record_line(record) + "\n")
                count += 1
        for t, token in wallet.token_receipts():
            if in_range(t):
                fh.write(_token_line(t, token) + "\n")
                count += 1
    return count


def import_wallet(path) -> Wallet:
    """Parse a wallet file into memory; errors name the offending line.

    A torn last line is skipped as by :class:`Wallet`, but the file is never written.
    """
    wallet = Wallet(path=None)
    try:
        with open(path, "rb") as fh:
            wallet._load(fh.read(), source=str(path))
    except OSError as exc:
        raise WalletError(f"cannot read {path}: {exc}") from None
    return wallet


# -- proximity sessions -----------------------------------------------------


@dataclass(frozen=True)
class GapRule:
    """Session split and camera merge parameters (all overridable)."""

    ri_multiplier: float = 2.0
    min_gap_s: float = 90.0
    merge_radius_m: float = 25.0

    def threshold(self, reconnect_interval_s: int) -> float:
        return max(self.ri_multiplier * reconnect_interval_s, self.min_gap_s)


@dataclass
class Session:
    """One contiguous run of capture from a camera, labeled by its group."""

    group_id: str
    camera_address: bytes
    records: list[WalletRecord]

    @property
    def start_t(self) -> float:
        return self.records[0].received_at

    @property
    def end_t(self) -> float:
        return self.records[-1].received_at


_EARTH_RADIUS_M = 6_371_000.0


def coordinate_distance_m(a: Coordinates, b: Coordinates) -> float:
    """Haversine great-circle distance in meters."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    h = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(h))


def _camera_groups(wallet: Wallet, rule: GapRule) -> dict[bytes, str]:
    """Union cameras whose coordinates lie within the merge radius.

    Cameras are swept in order of latitude, and each is compared only with
    those at most the merge radius further north: a great-circle distance is
    never below ``R·|Δφ|``. That reach is widened by a hair, so rounding
    loses no merge. A location off the globe (a latitude outside [-90, 90],
    or a longitude that is not finite) merges with no camera. Each group is
    labelled by its smallest address, whatever order the unions come in.
    """
    positions: dict[bytes, Coordinates] = {}
    for record in wallet.records:
        if isinstance(record.descriptor.location, Coordinates):
            positions[record.camera_address] = record.descriptor.location

    addresses = sorted(wallet.by_camera)
    parent = {a: a for a in addresses}

    def find(a: bytes) -> bytes:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    located = sorted(
        (math.radians(p.lat), a) for a, p in positions.items()
        if -90 <= p.lat <= 90 and math.isfinite(p.lon)
    )
    reach = rule.merge_radius_m * (1 + 1e-9) / _EARTH_RADIUS_M  # in radians of latitude
    for i, (lat, a) in enumerate(located):
        for j in range(i + 1, len(located)):
            lat_b, b = located[j]
            if lat_b - lat > reach:
                break
            if coordinate_distance_m(positions[a], positions[b]) <= rule.merge_radius_m:
                root_a, root_b = find(a), find(b)
                if root_a != root_b:
                    parent[max(root_a, root_b)] = min(root_a, root_b)

    return {a: find(a).hex() for a in addresses}


def group_sessions(wallet: Wallet, rule: GapRule = GapRule()) -> list[Session]:
    """Split each camera's records into time runs; label by merged group.

    Records from the same camera stay in one session while consecutive
    gaps are at most max(ri_multiplier x reconnect interval, min_gap_s).
    The result is a pure function of the wallet contents, independent of
    ingest order.
    """
    groups = _camera_groups(wallet, rule)
    sessions: list[Session] = []
    for address in sorted(wallet.by_camera):
        records = sorted(wallet.by_camera[address], key=lambda r: (r.received_at, r.packet.seq))
        run: list[WalletRecord] = []
        for record in records:
            if run and record.received_at - run[-1].received_at > rule.threshold(
                run[-1].packet.reconnect_interval_s
            ):
                sessions.append(Session(groups[address], address, run))
                run = []
            run.append(record)
        if run:
            sessions.append(Session(groups[address], address, run))
    sessions.sort(key=lambda s: (s.start_t, s.camera_address))
    return sessions


# -- fetch and decrypt ------------------------------------------------------


@dataclass
class FetchResult:
    video_id: bytes
    scheme: int
    plaintext: bytes | None
    chunks: list[tuple[int, bytes | None]] | None
    chain_status: ChainStatus | None  # None: no successor packet to check against

    @property
    def recovered(self) -> bytes:
        """All recovered plaintext, unlocked chunks concatenated in order."""
        if self.plaintext is not None:
            return self.plaintext
        return b"".join(data for _, data in self.chunks if data is not None)


def fetch_and_decrypt(wallet: Wallet, record: WalletRecord, fetcher) -> FetchResult:
    """Pull the segment named by ``record`` and decrypt it locally.

    The fetcher receives only the broadcast URL; keys never leave the
    process. Chain status is computed against the successor record's
    hash prefix when one is held.
    """
    packet = record.packet
    url = format_video_url(record.descriptor.url_template, packet.video_id)
    try:
        data = fetcher(url)
    except NotFoundError:
        raise NotFoundError(
            f"footage {packet.video_id.hex()} withheld or unavailable"
        ) from None

    successor = wallet.successor_of(record)
    chain_status = None if successor is None else crypto.chain_verdict(data, successor.packet)

    scheme = crypto.container_scheme(data)
    try:
        if scheme == crypto.SCHEME_SINGLE:
            plaintext = crypto.decrypt_segment(data, packet.key)
            return FetchResult(packet.video_id, scheme, plaintext, None, chain_status)
        chunks = crypto.decrypt_segment_chunked(
            data, packet.key, wallet.tokens_for(packet.video_id)
        )
        return FetchResult(packet.video_id, scheme, None, chunks, chain_status)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), chain_status=chain_status) from None


# -- live listener ----------------------------------------------------------


class Listener:
    """Passively harvests key packets and tokens from nearby cameras."""

    def __init__(self, wallet: Wallet, peer, clock):
        self.wallet = wallet
        self.peer = peer
        self.clock = clock
        self._descriptors: dict[bytes, CameraDescriptor] = {}
        self._last_seq: dict[bytes, int] = {}
        # (sender, advert kind byte) -> the last such payload fully handled;
        # handling it again would change nothing, so it is not decoded
        self._handled: dict[tuple[bytes, bytes], bytes] = {}
        peer.on_advertisement(self._on_advertisement)

    def _descriptor(self, camera_address: bytes) -> CameraDescriptor:
        if camera_address not in self._descriptors:
            self._descriptors[camera_address] = _descriptor_from_values(
                [self.peer.read_characteristic(camera_address, which) for which in DESCRIPTOR_CHARS]
            )
        return self._descriptors[camera_address]

    def _on_advertisement(self, sender: bytes, payload: bytes, t: float) -> None:
        handled_key = (sender, payload[:1])
        if self._handled.get(handled_key) == payload:
            return
        try:
            advert = decode_advertisement(payload)
        except ProtocolError:
            return  # not ours
        try:
            if isinstance(advert, Beacon):
                if self._last_seq.get(sender) == advert.seq:
                    return
                descriptor = self._descriptor(sender)
                raw = self.peer.read_characteristic(sender, CHAR_KEY_PACKET)
                packet = decode_key_packet(raw)
                record = WalletRecord(
                    received_at=t,
                    camera_address=sender,
                    descriptor=descriptor,
                    packet=packet,
                )
                self.wallet.ingest(record)
                self._last_seq[sender] = advert.seq
            elif isinstance(advert, ChunkToken):
                self.wallet.add_token(advert, t)
            self._handled[handled_key] = payload
        except (UnreachableError, NoSuchCharacteristicError, ProtocolError):
            return  # out of range mid-exchange, or not a well-formed camera; try next beacon
