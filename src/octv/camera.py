"""Camera daemon: rotates encrypted segments, chains hashes, broadcasts keys.

All capture and key material stays in RAM; the only persistent output is
ciphertext pushed through the store interface. At each segment start a
fresh key and video id are drawn and the key packet (carrying the
previous segment's hash prefix) goes on the air; at each boundary the
segment is sealed, hashed and dispatched per the availability mode.
"""

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

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
    CHAR_KEY_PACKET,
    CHAR_LOCATION,
    CHAR_MODE,
    CHAR_NAME,
    CHAR_TIER_KEY_PACKET,
    CHAR_URL_FORMAT,
    Beacon,
    CameraDescriptor,
    Coordinates,
    KeyPacket,
    Mode,
    TokenAnnouncement,
    encode_advertisement,
    encode_characteristic,
    encode_key_packet,
)
from .store import ObjectKey
from .transport import UdpBusPeer

_STREAM_BLOCK = 32  # bytes per synthetic stream block

# event dispatch priorities at equal timestamps
_EV_BOUNDARY = 0
_EV_UPLOAD = 1
_EV_BEACON = 2
_EV_TOKEN = 3

_BACKOFF_CAP_S = 30.0


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


class SyntheticFrameSource:
    """Constant-rate pseudo-random byte stream; same seed, same bytes.

    Lets end-to-end tests assert byte-exact decryption against an
    independently regenerated copy of the stream.
    """

    def __init__(self, seed: int, rate_bytes_per_s: int, duration_s: float | None = None):
        if rate_bytes_per_s <= 0:
            raise ConfigError(f"rate must be > 0, got {rate_bytes_per_s}")
        self.seed = seed
        self.rate = rate_bytes_per_s
        self.limit = None if duration_s is None else int(rate_bytes_per_s * duration_s)
        self.exhausted = False
        self._epoch: float | None = None
        self._position = 0

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
        data = synthetic_stream(self.seed, self._position, target)
        self._position = target
        return data


class FileFrameSource:
    """Replays a file's bytes at a constant rate, then exhausts."""

    def __init__(self, path, rate_bytes_per_s: int):
        if rate_bytes_per_s <= 0:
            raise ConfigError(f"rate must be > 0, got {rate_bytes_per_s}")
        with open(path, "rb") as fh:
            self._data = fh.read()
        self.rate = rate_bytes_per_s
        self.exhausted = False
        self._epoch: float | None = None
        self._position = 0

    def read_until(self, t: float) -> bytes:
        if self._epoch is None:
            self._epoch = t
            return b""
        target = min(int(self.rate * (t - self._epoch)), len(self._data))
        if target >= len(self._data):
            self.exhausted = True
        data = self._data[self._position : target]
        self._position = target
        return data


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
    tier_divisor: int = 8
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
        if len(self.camera_id) != 8:
            raise ConfigError(f"camera_id must be 8 bytes, got {len(self.camera_id)}")
        if not 1 <= self.segment_interval_s <= 0xFFFF:
            raise ConfigError(
                f"segment_interval_s must be 1-65535 (it is broadcast as the reconnect "
                f"interval), got {self.segment_interval_s}"
            )
        if self.advert_interval_ms < 20:
            raise ConfigError(f"advert_interval_ms must be >= 20, got {self.advert_interval_ms}")
        if self.mode == Mode.DELAYED and self.delay_s <= 0:
            raise ConfigError("delayed mode requires delay_s > 0")
        if self.tier_divisor < 2:
            raise ConfigError("tier_divisor must be >= 2")

    @property
    def extension(self) -> str:
        return "jpg" if self.descriptor.url_template.endswith(".jpg") else "mp4"


def build_frame_source(config: CameraConfig):
    if config.source_kind == "synthetic":
        return SyntheticFrameSource(config.source_seed, config.source_rate, config.source_duration_s)
    if config.source_kind == "file":
        if not config.source_path:
            raise ConfigError("source=file requires source_path")
        return FileFrameSource(config.source_path, config.source_rate)
    raise ConfigError(f"unknown source kind {config.source_kind!r}")


def parse_camera_config(path) -> CameraConfig:
    """Load the documented key=value camera configuration file."""
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
        values[key.strip()] = value.strip()

    def need(key: str) -> str:
        if key not in values or not values[key]:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return values[key]

    name = need("name")
    mode = Mode.from_name(values.get("mode", "auto"))
    raw_location = values.get("location", "")
    location: Coordinates | str
    if raw_location.startswith("text:"):
        location = raw_location[len("text:") :]
    elif "," in raw_location:
        lat, lon = raw_location.split(",")
        location = Coordinates(float(lat), float(lon))
    else:
        location = raw_location or "unspecified"
    descriptor = CameraDescriptor(
        name=name, mode=mode, location=location, url_template=need("url_template")
    )

    camera_id_hex = values.get("camera_id", "")
    if camera_id_hex:
        camera_id = bytes.fromhex(camera_id_hex)
    else:
        camera_id = hashlib.sha256(name.encode("utf-8")).digest()[:8]

    chunk_count = int(values.get("chunk_count", "0"))
    chunking = None
    if chunk_count > 0:
        chunking = ChunkingConfig(
            chunk_count=chunk_count,
            token_advert_interval_ms=int(values.get("token_advert_interval_ms", "500")),
        )

    duration = values.get("duration_s", "")
    return CameraConfig(
        descriptor=descriptor,
        camera_id=camera_id,
        segment_interval_s=int(need("segment_interval_s")),
        advert_interval_ms=int(values.get("advert_interval_ms", "1000")),
        mode=mode,
        delay_s=int(values.get("delay_s", "0")),
        chunking=chunking,
        tiering=values.get("tiering", "false").lower() in ("true", "1", "yes"),
        store_target=values.get("store", ""),
        source_kind=values.get("source", "synthetic"),
        source_seed=int(values.get("seed", "0")),
        source_rate=int(values.get("rate_bytes_per_s", "1000")),
        source_duration_s=float(duration) if duration else None,
        source_path=values.get("source_path") or None,
        withheld_budget_bytes=int(values.get("withheld_budget_bytes", str(64 * 1024 * 1024))),
        control_dir=values.get("control_dir") or None,
        bus_dir=values.get("bus_dir") or None,
    )


@dataclass
class SegmentRecord:
    """A finalized segment; the key is never stored here."""

    video_id: bytes
    seq: int
    start_t: float
    end_t: float
    container: bytes
    state: str  # pending | uploaded | withheld
    stream: str = "main"  # main | tier


@dataclass
class _LiveSegment:
    seq: int
    start_t: float
    key: bytes
    video_id: bytes
    packet: KeyPacket
    buffer: bytearray = field(default_factory=bytearray)
    tokens: list[crypto.ChunkToken] | None = None
    tier_key: bytes | None = None
    tier_video_id: bytes | None = None
    tier_packet: KeyPacket | None = None


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
        self._prev_hash = crypto.ZERO_HASH_PREFIX
        self._tier_prev_hash = crypto.ZERO_HASH_PREFIX
        self._boundary_t = 0.0
        self._next_beacon_t = 0.0
        self._next_token_t: float | None = None
        self._pending: list[tuple[float, SegmentRecord, int]] = []  # (due, record, attempt)
        self._withheld: dict[bytes, SegmentRecord] = {}
        self._withheld_order: list[bytes] = []
        self._withheld_bytes = 0
        self._stopped = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def attach(self, address: bytes | None = None) -> None:
        """Join the transport and expose the characteristic surface."""
        if self.handle is None:
            if hasattr(self.transport, "join"):
                self.handle = self.transport.join("camera", address=address)
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

    @property
    def stopped(self) -> bool:
        return self._stopped

    def current_segment_info(self) -> dict | None:
        """Identity of the in-progress segment, without key material."""
        if self._segment is None:
            return None
        return {
            "video_id": self._segment.video_id,
            "seq": self._segment.seq,
            "start_t": self._segment.start_t,
            "tier_video_id": self._segment.tier_video_id,
        }

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
            self._dispatch_next()
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
            self._dispatch_next()
        if isinstance(self.clock, SimClock):
            self.clock.advance_to(t)

    def shutdown(self) -> None:
        """Finalize in-progress footage and flush due uploads."""
        t = self.clock.now()
        if self._segment is not None:
            self._pull_frames(t)
            if self._segment.buffer:
                for record in self._finalize_segment(t):
                    self._dispatch_record(record, t)
                self._start_segment(t)  # emits the packet vouching for the last file
        self._segment = None
        for due, record, attempt in list(self._pending):
            self._try_upload(record, t, attempt)
        self._pending.clear()
        self._emit({"event": "stop", "t": t})
        self._stopped = True

    # -- event loop ---------------------------------------------------------

    def _next_event(self) -> tuple[float, int, SegmentRecord | None] | None:
        candidates: list[tuple[float, int, SegmentRecord | None]] = []
        if self._segment is not None:
            candidates.append((self._boundary_t, _EV_BOUNDARY, None))
            candidates.append((self._next_beacon_t, _EV_BEACON, None))
            if self._next_token_t is not None:
                candidates.append((self._next_token_t, _EV_TOKEN, None))
        for due, record, attempt in self._pending:
            candidates.append((due, _EV_UPLOAD, record))
        if not candidates:
            return None
        return min(candidates, key=lambda c: (c[0], c[1]))

    def _dispatch_next(self) -> None:
        event = self._next_event()
        if event is None:
            return
        when, priority, record = event
        if priority == _EV_BOUNDARY:
            self._on_boundary(when)
        elif priority == _EV_UPLOAD:
            entry = next(e for e in self._pending if e[1] is record and e[0] == when)
            self._pending.remove(entry)
            self._try_upload(record, when, entry[2])
        elif priority == _EV_BEACON:
            self._emit_beacon(when)
        elif priority == _EV_TOKEN:
            self._emit_token(when)

    def _on_boundary(self, t: float) -> None:
        self._pull_frames(t)
        for record in self._finalize_segment(t):
            self._dispatch_record(record, t)
        self._start_segment(t)
        if self.source.exhausted:
            self._emit({"event": "source-exhausted", "t": t})
            # the just-started segment is empty; stop discards it
            self._stopped = True

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
        key = self._fresh_key()
        video_id = self._fresh_video_id()
        packet = KeyPacket(
            key=key,
            seq=self._seq,
            reconnect_interval_s=config.segment_interval_s,
            video_id=video_id,
            prev_hash_prefix=self._prev_hash,
        )
        segment = _LiveSegment(seq=self._seq, start_t=t, key=key, video_id=video_id, packet=packet)
        if config.chunking is not None:
            segment.tokens = [
                crypto.ChunkToken(crypto.generate_token(), i, video_id)
                for i in range(config.chunking.chunk_count)
            ]
        if config.tiering:
            segment.tier_key = self._fresh_key()
            segment.tier_video_id = self._fresh_video_id()
            segment.tier_packet = KeyPacket(
                key=segment.tier_key,
                seq=self._seq,
                reconnect_interval_s=config.segment_interval_s,
                video_id=segment.tier_video_id,
                prev_hash_prefix=self._tier_prev_hash,
            )
        self._segment = segment
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
        config = self.config
        segment = self._segment
        plaintext = bytes(segment.buffer)
        if config.chunking is not None:
            container = crypto.encrypt_segment_chunked(
                plaintext, config.chunking.chunk_count, segment.key, segment.tokens
            )
        else:
            container = crypto.encrypt_segment(plaintext, segment.key)
        record = SegmentRecord(
            video_id=segment.video_id,
            seq=segment.seq,
            start_t=segment.start_t,
            end_t=t,
            container=container,
            state="pending",
        )
        new_records = [record]
        self.records.append(record)
        self._prev_hash = crypto.hash_prefix(container)
        self._emit(
            {
                "event": "rotate",
                "t": t,
                "seq": segment.seq,
                "video_id": segment.video_id.hex(),
                "plaintext_bytes": len(plaintext),
                "container_bytes": len(container),
            }
        )

        if config.tiering:
            reduced = plaintext[:: config.tier_divisor]
            tier_container = crypto.encrypt_segment(reduced, segment.tier_key)
            tier_record = SegmentRecord(
                video_id=segment.tier_video_id,
                seq=segment.seq,
                start_t=segment.start_t,
                end_t=t,
                container=tier_container,
                state="pending",
                stream="tier",
            )
            self.records.append(tier_record)
            new_records.append(tier_record)
            self._tier_prev_hash = crypto.hash_prefix(tier_container)

        self._segment = None
        self._seq = (self._seq + 1) % 256
        return new_records

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
        self._withheld_order.append(record.video_id)
        self._withheld_bytes += len(record.container)
        while self._withheld_bytes > self.config.withheld_budget_bytes and len(self._withheld_order) > 1:
            oldest = self._withheld_order.pop(0)
            evicted = self._withheld.pop(oldest)
            self._withheld_bytes -= len(evicted.container)
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
        self._withheld_order.remove(video_id)
        self._withheld_bytes -= len(record.container)
        self._emit({"event": "release", "video_id": video_id.hex()})
        self._try_upload(record, self.clock.now(), attempt=0)

    # -- broadcast ----------------------------------------------------------

    def _emit_beacon(self, t: float) -> None:
        beacon = Beacon(camera_id=self.config.camera_id, seq=self._segment.seq)
        self.handle.advertise(encode_advertisement(beacon))
        self._next_beacon_t = t + self.config.advert_interval_ms / 1000.0

    def _current_chunk_index(self, t: float) -> int:
        chunking = self.config.chunking
        chunk_duration = self.config.segment_interval_s / chunking.chunk_count
        elapsed = max(0.0, t - self._segment.start_t)
        return min(int(elapsed / chunk_duration), chunking.chunk_count - 1)

    def _emit_token(self, t: float) -> None:
        index = self._current_chunk_index(t)
        token = self._segment.tokens[index]
        announcement = TokenAnnouncement(
            video_id=self._segment.video_id, chunk_index=index, token=token.token
        )
        self.handle.advertise(encode_advertisement(announcement))
        self._next_token_t = t + self.config.chunking.token_advert_interval_ms / 1000.0

    def _resolve_characteristic(self, suffix: int) -> bytes:
        descriptor = self.config.descriptor
        if suffix in (CHAR_NAME, CHAR_MODE, CHAR_LOCATION, CHAR_URL_FORMAT):
            return encode_characteristic(descriptor, suffix)
        if suffix == CHAR_KEY_PACKET and self._segment is not None:
            return encode_key_packet(self._segment.packet)
        if suffix == CHAR_TIER_KEY_PACKET and self.config.tiering and self._segment is not None:
            return encode_key_packet(self._segment.tier_packet)
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
                    self.release_segment(bytes.fromhex(stem[len("release-") :]))
                    outcome = "ok"
                else:
                    outcome = "err unknown request"
            except OctvError as exc:
                outcome = f"err {exc}"
            except ValueError:
                outcome = "err bad video id"
            os.unlink(path)
            with open(os.path.join(control, stem + ".resp"), "w", encoding="utf-8") as fh:
                fh.write(outcome + "\n")


def rotate_segment(runtime: CameraRuntime) -> tuple[SegmentRecord, KeyPacket]:
    """Force a rotation now; returns the finalized record and next packet.

    The returned record keeps its container bytes even where the mode
    policy erases the runtime's own copy after upload.
    """
    t = runtime.clock.now()
    runtime._pull_frames(t)
    records = runtime._finalize_segment(t)
    snapshot = dataclasses.replace(records[0])
    for record in records:
        runtime._dispatch_record(record, t)
    runtime._start_segment(t)
    return snapshot, runtime._segment.packet
