"""Camera daemon: rotates encrypted segments, chains hashes, broadcasts keys.

All capture and key material stays in RAM; the only persistent output is
ciphertext pushed through the store interface. At each segment start a
fresh key and video id are drawn and the key packet (carrying the
previous segment's hash prefix) goes on the air; at each boundary the
segment is sealed, hashed and dispatched per the availability mode.
"""

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from operator import itemgetter

from . import crypto
from .clocks import SimClock
from .errors import (
    ConfigError,
    InvalidModeError,
    NotFoundError,
    NoSuchCharacteristicError,
    OctvError,
)
from .protocol import (
    CAMERA_ID_LEN,
    CHAR_KEY_PACKET,
    CHAR_TIER_KEY_PACKET,
    DESCRIPTOR_CHARS,
    Beacon,
    CameraDescriptor,
    Coordinates,
    KeyPacket,
    Mode,
    TokenAnnouncement,
    encode_advertisement,
    encode_characteristic,
    encode_key_packet,
    parse_video_id,
    url_extension,
)
from .store import ObjectKey
from .transport import UdpBusPeer

_STREAM_BLOCK = 32  # bytes per synthetic stream block

# event dispatch priorities at equal timestamps
_EV_BOUNDARY = 0
_EV_UPLOAD = 1
_EV_BEACON = 2
_EV_TOKEN = 3

# orders events by due time, then priority; an event's third field does not compare
_DUE_THEN_PRIORITY = itemgetter(0, 1)

_BACKOFF_CAP_S = 30.0

_TIER_DIVISOR = 8  # the tier file keeps every 8th byte of the segment

# key-packet characteristic -> place of its stream in a live segment's files
_KEY_PACKET_PLACE = {CHAR_KEY_PACKET: 0, CHAR_TIER_KEY_PACKET: 1}


def synthetic_stream(seed: int, start: int, end: int) -> bytes:
    """Bytes [start, end) of the deterministic stream for ``seed``."""
    if end <= start:
        return b""
    first, last = start // _STREAM_BLOCK, (end - 1) // _STREAM_BLOCK
    chunks = []
    for block in range(first, last + 1):
        material = b"octv-synth" + seed.to_bytes(8, "big", signed=True) + block.to_bytes(8, "big")
        chunks.append(hashlib.sha256(material).digest())
    blob = b"".join(chunks)
    offset = start - first * _STREAM_BLOCK
    return blob[offset : offset + (end - start)]


class _PacedSource:
    """Releases a byte stream at a constant rate from its first read.

    The first ``read_until`` anchors the epoch; each later one returns the
    bytes due since the previous read, up to ``limit`` (``None``: never
    exhausts). Subclasses supply the bytes of ``[start, end)``.
    """

    def __init__(self, rate_bytes_per_s: int, limit: int | None):
        if rate_bytes_per_s <= 0:
            raise ConfigError(f"rate must be > 0, got {rate_bytes_per_s}")
        self.rate = rate_bytes_per_s
        self.limit = limit
        self.exhausted = False
        self._epoch: float | None = None
        self._position = 0

    def _bytes(self, start: int, end: int) -> bytes:
        raise NotImplementedError

    def read_until(self, t: float) -> bytes:
        if self._epoch is None:
            self._epoch = t
            return b""
        target = int(self.rate * (t - self._epoch))
        if self.limit is not None and target >= self.limit:
            target = self.limit
            self.exhausted = True
        if target <= self._position:
            return b""
        data = self._bytes(self._position, target)
        self._position = target
        return data


class SyntheticFrameSource(_PacedSource):
    """Constant-rate pseudo-random byte stream; same seed, same bytes.

    Lets end-to-end tests assert byte-exact decryption against an
    independently regenerated copy of the stream.
    """

    def __init__(self, seed: int, rate_bytes_per_s: int, duration_s: float | None = None):
        limit = None if duration_s is None else int(rate_bytes_per_s * duration_s)
        super().__init__(rate_bytes_per_s, limit)
        self.seed = seed

    def _bytes(self, start: int, end: int) -> bytes:
        return synthetic_stream(self.seed, start, end)


class FileFrameSource(_PacedSource):
    """Replays a file's bytes at a constant rate, then exhausts."""

    def __init__(self, path, rate_bytes_per_s: int):
        with open(path, "rb") as fh:
            self._data = fh.read()
        super().__init__(rate_bytes_per_s, len(self._data))

    def _bytes(self, start: int, end: int) -> bytes:
        return self._data[start:end]


@dataclass(frozen=True)
class ChunkingConfig:
    """Fine-grained access: per-chunk tokens advertised within a segment."""

    chunk_count: int
    token_advert_interval_ms: int

    def __post_init__(self):
        if self.chunk_count < 1:
            raise ConfigError(f"chunk_count must be >= 1, got {self.chunk_count}")
        if self.token_advert_interval_ms < 20:
            raise ConfigError("token_advert_interval_ms must be >= 20")


@dataclass
class CameraConfig:
    descriptor: CameraDescriptor
    camera_id: bytes
    segment_interval_s: int
    advert_interval_ms: int = 1000
    mode: Mode = Mode.AUTO
    delay_s: int = 0
    chunking: ChunkingConfig | None = None
    tiering: bool = False
    store_target: str = ""
    source_kind: str = "synthetic"  # synthetic | file
    source_seed: int = 0
    source_rate: int = 1000
    source_duration_s: float | None = None
    source_path: str | None = None
    withheld_budget_bytes: int = 64 * 1024 * 1024
    control_dir: str | None = None
    bus_dir: str | None = None

    def __post_init__(self):
        if len(self.camera_id) != CAMERA_ID_LEN:
            raise ConfigError(
                f"camera_id must be {CAMERA_ID_LEN} bytes, got {len(self.camera_id)}"
            )
        if not 1 <= self.segment_interval_s <= 0xFFFF:
            raise ConfigError(
                f"segment_interval_s must be 1-65535 (it is broadcast as the reconnect "
                f"interval), got {self.segment_interval_s}"
            )
        if self.advert_interval_ms < 20:
            raise ConfigError(f"advert_interval_ms must be >= 20, got {self.advert_interval_ms}")
        if self.mode == Mode.DELAYED and self.delay_s <= 0:
            raise ConfigError("delayed mode requires delay_s > 0")

    @property
    def extension(self) -> str:
        return url_extension(self.descriptor.url_template)


def camera_id_for(name: str) -> bytes:
    """The camera id derived from a camera's name when none is configured."""
    return hashlib.sha256(name.encode("utf-8")).digest()[:CAMERA_ID_LEN]


def build_frame_source(config: CameraConfig):
    if config.source_kind == "synthetic":
        return SyntheticFrameSource(config.source_seed, config.source_rate, config.source_duration_s)
    if config.source_kind == "file":
        if not config.source_path:
            raise ConfigError("source=file requires source_path")
        return FileFrameSource(config.source_path, config.source_rate)
    raise ConfigError(f"unknown source kind {config.source_kind!r}")


_REQUIRED = object()


def config_value(values: dict, key: str, convert=str, default=_REQUIRED):
    """``convert(values[key])``, or ``default`` when absent; a ConfigError names a bad key."""
    if not isinstance(values, dict):
        raise ConfigError(f"expected an object of keys and values, got {type(values).__name__}")
    if key not in values:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return convert(values[key])
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _location(text: str) -> "Coordinates | str":
    if text.startswith("text:"):
        return text[len("text:") :]
    if "," in text:
        lat, lon = text.split(",")
        return Coordinates(float(lat), float(lon))
    return text


def parse_camera_config(path) -> CameraConfig:
    """Load the documented key=value camera configuration file.

    An empty value counts as absent; a bad one is a ConfigError naming file and key.
    """
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read camera config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        if value.strip():
            values[key.strip()] = value.strip()

    get = functools.partial(config_value, values)
    try:
        name = get("name")
        mode = get("mode", Mode.from_name, Mode.AUTO)
        descriptor = CameraDescriptor(name=name, mode=mode, url_template=get("url_template"),
                                      location=get("location", _location, "unspecified"))
        chunk_count = get("chunk_count", int, 0)
        chunking = (ChunkingConfig(chunk_count, get("token_advert_interval_ms", int, 500))
                    if chunk_count > 0 else None)
        return CameraConfig(
            descriptor=descriptor, mode=mode, chunking=chunking,
            camera_id=get("camera_id", bytes.fromhex, None) or camera_id_for(name),
            segment_interval_s=get("segment_interval_s", int),
            advert_interval_ms=get("advert_interval_ms", int, 1000),
            delay_s=get("delay_s", int, 0),
            tiering=get("tiering", lambda v: v.lower() in ("true", "1", "yes"), False),
            store_target=get("store", default=""), source_kind=get("source", default="synthetic"),
            source_seed=get("seed", int, 0), source_rate=get("rate_bytes_per_s", int, 1000),
            source_duration_s=get("duration_s", float, None),
            source_path=values.get("source_path"),
            withheld_budget_bytes=get("withheld_budget_bytes", int, 64 * 1024 * 1024),
            control_dir=values.get("control_dir"), bus_dir=values.get("bus_dir"),
        )
    except (ConfigError, ValueError) as exc:  # ValueError: a descriptor field out of range
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class SegmentRecord:
    """A finalized segment; the key is never stored here."""

    video_id: bytes
    seq: int
    start_t: float
    end_t: float
    container: bytes
    state: str  # pending | uploaded | withheld | evicted
    stream: str = "main"  # main | tier


@dataclass
class _StreamFile:
    """One stream's file in the live segment; its key packet holds its key and id."""

    stream: str  # main | tier
    packet: KeyPacket
    tokens: list[crypto.ChunkToken] | None = None  # a chunked main file's tokens


@dataclass
class _LiveSegment:
    seq: int
    start_t: float
    files: list[_StreamFile]  # main first, then tier when tiering
    beacon: bytes  # the encoded beacon advert, the same all segment long
    token_adverts: list[bytes] | None = None  # encoded token advert of each chunk
    buffer: bytearray = field(default_factory=bytearray)


def _stdout_events(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


class CameraRuntime:
    """Single recording loop owning segment state and broadcast timers."""

    def __init__(self, config: CameraConfig, clock, frame_source, transport, store, *,
                 key_audit: list | None = None, video_id_source=None, event_sink=None):
        self.config = config
        self.clock = clock
        self.source = frame_source
        self.transport = transport
        self.store = store
        self.key_audit = key_audit
        self._video_id_source = video_id_source or crypto.generate_video_id
        self._emit = event_sink or _stdout_events
        self.handle = None
        self.records: list[SegmentRecord] = []
        self._segment: _LiveSegment | None = None
        self._seq = 0
        # each stream's chain: the hash prefix of its last sealed file
        streams = ("main", "tier") if config.tiering else ("main",)
        self._prev_hash = dict.fromkeys(streams, crypto.ZERO_HASH_PREFIX)
        self._boundary_t = 0.0
        self._next_beacon_t = 0.0
        self._next_token_t: float | None = None
        self._pending: list[tuple[float, SegmentRecord, int]] = []  # (due, record, attempt)
        self._withheld: dict[bytes, SegmentRecord] = {}  # oldest first
        self._withheld_bytes = 0
        self._stopped = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def attach(self) -> None:
        """Join the transport and expose the characteristic surface."""
        if self.handle is None:
            if hasattr(self.transport, "join"):
                self.handle = self.transport.join("camera")
            else:
                self.handle = self.transport  # pre-built peer (e.g. UDP bus)
            self.handle.serve_characteristics(self._resolve_characteristic)

    def start(self) -> None:
        if self._started:
            return
        self.attach()
        self._started = True
        t = self.clock.now()
        self.source.read_until(t)  # anchor the source's epoch at recording start
        self._emit({"event": "start", "t": t, "camera_id": self.config.camera_id.hex()})
        self._start_segment(t)

    def request_stop(self) -> None:
        self._stopped = True

    def current_segment_info(self) -> list[dict]:
        """The in-progress segment's files, main first, without key material."""
        segment = self._segment
        if segment is None:
            return []
        return [
            {"stream": f.stream, "video_id": f.packet.video_id, "seq": segment.seq,
             "start_t": segment.start_t}
            for f in segment.files
        ]

    def run(self) -> None:
        """Record until the source exhausts or a stop is requested."""
        self.start()
        blocking_pump = isinstance(self.handle, UdpBusPeer)
        while not self._stopped:
            event = self._next_event()
            if event is None:
                break
            when = event[0]
            while not self._stopped and self.clock.now() < when:
                slice_s = min(0.25, when - self.clock.now())
                if blocking_pump:
                    self.handle.pump(timeout=slice_s)
                else:
                    self.handle.pump()
                    self.clock.sleep(slice_s)
                self._poll_control()
            if self._stopped:
                break
            self._dispatch(event)
            self._poll_control()
        self.shutdown()

    def advance_to(self, t: float) -> None:
        """Process every event due at or before ``t`` (virtual clock runs)."""
        self.start()
        while not self._stopped:
            event = self._next_event()
            if event is None or event[0] > t:
                break
            if isinstance(self.clock, SimClock):
                self.clock.advance_to(event[0])
            self._dispatch(event)
        if isinstance(self.clock, SimClock):
            self.clock.advance_to(t)

    def shutdown(self) -> None:
        """Finalize in-progress footage and flush due uploads."""
        t = self.clock.now()
        if self._segment is not None:
            self._pull_frames(t)
            if self._segment.buffer:
                self.rotate(t)  # emits the packet vouching for the last file
        self._segment = None
        for due, record, attempt in list(self._pending):
            self._try_upload(record, t, attempt)
        self._pending.clear()
        self._emit({"event": "stop", "t": t})
        self._stopped = True

    # -- event loop ---------------------------------------------------------

    def _next_event(self) -> tuple[float, int, tuple | None] | None:
        """The earliest event as (due, priority, its ``_pending`` entry or None)."""
        candidates: list[tuple[float, int, tuple | None]] = []
        if self._segment is not None:
            candidates.append((self._boundary_t, _EV_BOUNDARY, None))
            candidates.append((self._next_beacon_t, _EV_BEACON, None))
            if self._next_token_t is not None:
                candidates.append((self._next_token_t, _EV_TOKEN, None))
        for entry in self._pending:
            candidates.append((entry[0], _EV_UPLOAD, entry))
        if not candidates:
            return None
        return min(candidates, key=_DUE_THEN_PRIORITY)

    def _dispatch(self, event: tuple[float, int, tuple | None]) -> None:
        when, priority, entry = event
        if priority == _EV_BOUNDARY:
            self._on_boundary(when)
        elif priority == _EV_UPLOAD:
            # by identity: records with equal fields are still distinct uploads
            del self._pending[next(i for i, e in enumerate(self._pending) if e is entry)]
            self._try_upload(entry[1], when, entry[2])
        elif priority == _EV_BEACON:
            self._emit_beacon(when)
        elif priority == _EV_TOKEN:
            self._emit_token(when)

    def _on_boundary(self, t: float) -> None:
        self.rotate(t)
        if self.source.exhausted:
            self._emit({"event": "source-exhausted", "t": t})
            # the just-started segment is empty; stop discards it
            self._stopped = True

    def rotate(self, t: float) -> list[SegmentRecord]:
        """Seal the live segment at ``t``, dispatch it and start the next one.

        Returns the sealed records, main stream first. Dispatch follows the
        mode, so in auto mode an upload has already erased their containers.
        """
        self._pull_frames(t)
        records = self._finalize_segment(t)
        for record in records:
            self._dispatch_record(record, t)
        self._start_segment(t)
        return records

    def _pull_frames(self, t: float) -> None:
        if self._segment is not None:
            self._segment.buffer += self.source.read_until(t)

    # -- segment state ------------------------------------------------------

    def _fresh_video_id(self) -> bytes:
        for _ in range(3):
            video_id = self._video_id_source()
            try:
                if not self.store.contains(ObjectKey(video_id, self.config.extension)):
                    return video_id
            except OctvError:
                return video_id  # store unreachable: never block the key broadcast
        raise OctvError("video id collision persisted after 3 attempts")

    def _fresh_key(self) -> bytes:
        key = crypto.generate_key()
        if self.key_audit is not None:
            self.key_audit.append(key)
        return key

    def _start_segment(self, t: float) -> None:
        config = self.config
        files = []
        for stream, prev_hash in self._prev_hash.items():
            key = self._fresh_key()  # each stream draws its key, then its id
            packet = KeyPacket(key=key, seq=self._seq, reconnect_interval_s=config.segment_interval_s,
                               video_id=self._fresh_video_id(), prev_hash_prefix=prev_hash)
            files.append(_StreamFile(stream, packet))
        beacon = encode_advertisement(Beacon(camera_id=config.camera_id, seq=self._seq))
        self._segment = _LiveSegment(seq=self._seq, start_t=t, files=files, beacon=beacon)
        if config.chunking is not None:
            video_id = files[0].packet.video_id
            files[0].tokens = [crypto.ChunkToken(crypto.generate_token(), i, video_id)
                               for i in range(config.chunking.chunk_count)]
            self._segment.token_adverts = [
                encode_advertisement(TokenAnnouncement(video_id, token.chunk_index, token.token))
                for token in files[0].tokens
            ]
        self._boundary_t = t + config.segment_interval_s
        self._next_beacon_t = t
        self._emit_beacon(t)
        if config.chunking is not None:
            self._next_token_t = t
            self._emit_token(t)
        else:
            self._next_token_t = None

    def _finalize_segment(self, t: float) -> list[SegmentRecord]:
        """Seal the live segment; returns the new records, not yet dispatched."""
        segment = self._segment
        plaintext = bytes(segment.buffer)
        records = []
        for f in segment.files:
            data = plaintext if f.stream == "main" else plaintext[::_TIER_DIVISOR]
            key = f.packet.key
            if f.tokens is None:
                container = crypto.encrypt_segment(data, key)
            else:
                container = crypto.encrypt_segment_chunked(data, len(f.tokens), key, f.tokens)
            records.append(SegmentRecord(
                video_id=f.packet.video_id, seq=segment.seq, start_t=segment.start_t, end_t=t,
                container=container, state="pending", stream=f.stream))
            self._prev_hash[f.stream] = crypto.hash_prefix(container)
        self.records.extend(records)
        main = records[0]
        self._emit(
            {
                "event": "rotate",
                "t": t,
                "seq": segment.seq,
                "video_id": main.video_id.hex(),
                "plaintext_bytes": len(plaintext),
                "container_bytes": len(main.container),
            }
        )
        self._segment = None
        self._seq = (self._seq + 1) % 256
        return records

    def _dispatch_record(self, record: SegmentRecord, t: float) -> None:
        if self.config.mode == Mode.AUTO:
            self._try_upload(record, t, attempt=0)
        elif self.config.mode == Mode.DELAYED:
            self._pending.append((t + self.config.delay_s, record, 0))
        else:
            self._withhold(record)

    def _withhold(self, record: SegmentRecord) -> None:
        record.state = "withheld"
        self._withheld[record.video_id] = record
        self._withheld_bytes += len(record.container)
        while self._withheld_bytes > self.config.withheld_budget_bytes and len(self._withheld) > 1:
            oldest = next(iter(self._withheld))
            evicted = self._withheld.pop(oldest)
            self._withheld_bytes -= len(evicted.container)
            evicted.state = "evicted"
            evicted.container = b""  # the footage is gone, as the event says
            self._emit({"event": "withheld-evicted", "video_id": oldest.hex()})
        self._emit(
            {"event": "withhold", "t": record.end_t, "video_id": record.video_id.hex(),
             "seq": record.seq}
        )

    def _try_upload(self, record: SegmentRecord, t: float, attempt: int) -> None:
        key = ObjectKey(record.video_id, self.config.extension)
        try:
            self.store.put(key, record.container)
        except (OctvError, OSError) as exc:
            backoff = min(2.0**attempt, _BACKOFF_CAP_S)
            self._pending.append((t + backoff, record, attempt + 1))
            self._emit(
                {"event": "upload-retry", "t": t, "video_id": record.video_id.hex(),
                 "attempt": attempt + 1, "error": str(exc)}
            )
            return
        record.state = "uploaded"
        record.container = b""  # local ciphertext copy erased after upload
        self._emit(
            {"event": "upload", "t": t, "video_id": record.video_id.hex(),
             "object": key.path, "stream": record.stream}
        )

    def release_segment(self, video_id: bytes) -> None:
        """Operator release of a withheld segment (manual mode only)."""
        if self.config.mode != Mode.MANUAL:
            raise InvalidModeError(f"release requires manual mode, camera is {self.config.mode.name.lower()}")
        record = self._withheld.pop(video_id, None)
        if record is None:
            raise NotFoundError(f"no withheld segment {video_id.hex()}")
        self._withheld_bytes -= len(record.container)
        self._emit({"event": "release", "video_id": video_id.hex()})
        self._try_upload(record, self.clock.now(), attempt=0)

    # -- broadcast ----------------------------------------------------------

    def _emit_beacon(self, t: float) -> None:
        self.handle.advertise(self._segment.beacon)
        self._next_beacon_t = t + self.config.advert_interval_ms / 1000.0

    def _current_chunk_index(self, t: float) -> int:
        chunking = self.config.chunking
        chunk_duration = self.config.segment_interval_s / chunking.chunk_count
        elapsed = max(0.0, t - self._segment.start_t)
        return min(int(elapsed / chunk_duration), chunking.chunk_count - 1)

    def _emit_token(self, t: float) -> None:
        self.handle.advertise(self._segment.token_adverts[self._current_chunk_index(t)])
        self._next_token_t = t + self.config.chunking.token_advert_interval_ms / 1000.0

    def _resolve_characteristic(self, suffix: int) -> bytes:
        descriptor = self.config.descriptor
        if suffix in DESCRIPTOR_CHARS:
            return encode_characteristic(descriptor, suffix)
        place = _KEY_PACKET_PLACE.get(suffix)
        if place is not None and self._segment is not None and place < len(self._segment.files):
            return encode_key_packet(self._segment.files[place].packet)
        raise NoSuchCharacteristicError(f"characteristic {suffix:#06x} not served")

    # -- operator control ---------------------------------------------------

    def _poll_control(self) -> None:
        control = self.config.control_dir
        if not control or not os.path.isdir(control):
            return
        for name in sorted(os.listdir(control)):
            if not name.endswith(".req"):
                continue
            path = os.path.join(control, name)
            stem = name[: -len(".req")]
            try:
                if stem == "stop":
                    self._stopped = True
                    outcome = "ok"
                elif stem.startswith("release-"):
                    self.release_segment(parse_video_id(stem[len("release-") :]))
                    outcome = "ok"
                else:
                    outcome = "err unknown request"
            except OctvError as exc:
                outcome = f"err {exc}"
            os.unlink(path)
            with open(os.path.join(control, stem + ".resp"), "w", encoding="utf-8") as fh:
                fh.write(outcome + "\n")
