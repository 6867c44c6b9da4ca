import ast
import hashlib
import itertools
from pathlib import Path

import pytest

from harness import FlakyStore, LocalStoreFetcher, make_config, run_pipeline
import octv
from octv import camera as camera_module
from octv.camera import (
    CameraRuntime,
    ConfigReader,
    SyntheticFrameSource,
    build_frame_source,
    config_flag,
    SegmentRecord,
    parse_camera_config,
    synthetic_stream,
)
from octv.client import Listener, Wallet
from octv.clocks import SimClock
from octv.crypto import hash_prefix
from octv.errors import ConfigError, InvalidModeError, NotFoundError, OctvError
from octv.protocol import (
    CHAR_KEY_PACKET,
    CHAR_MODE,
    CHAR_NAME,
    CHAR_TIER_KEY_PACKET,
    Mode,
    decode_key_packet,
    format_video_url,
)
from octv.sim import scenario_from_dict
from octv.store import HttpStoreClient, MemoryObjectStore, ObjectKey, StoreServer
from octv.transport import SimTransport


class TestSyntheticFrames:
    def test_same_seed_same_bytes(self):
        assert synthetic_stream(9, 0, 4096) == synthetic_stream(9, 0, 4096)

    def test_different_seeds_differ(self):
        assert synthetic_stream(1, 0, 4096) != synthetic_stream(2, 0, 4096)

    @pytest.mark.parametrize("seed, start, end, digest", [
        (0, 0, 4096, "b27271f1c723daebbdbedd77e8bcb3239b69085ff1b97b2b91c28cc06ea0c83c"),
        (9, 5, 100, "4a4454ee62ce13fa15d3f4b1df5a10eb545b9c8812ae83c344e47220cd7b8678"),
        (9, 33, 61, "639efe6355a45c9b313d43840b2cc5a7468561a38f571f2918c8cdba43308408"),
        (-7, 1000, 1031, "19b62321ae9c60c8538aea38f811270387c1005ce95b65da47ac1b705c03a754"),
        (2**40, 31, 33, "3434701edd94f14ce2bb202d9a9dc9ade0ad0962d65d0af925124774f90d90f5"),
        (1, 0, 1, "892f60b39450a0e770f00a836761c8e964fd74671ae2cc51cff36cde4f914c12"),
        (3, 64, 64, hashlib.sha256(b"").hexdigest()),
        (3, 10, 5, hashlib.sha256(b"").hexdigest()),
    ], ids=["whole-blocks", "unaligned", "inside-one-block", "negative-seed",
            "across-a-boundary", "one-byte", "empty", "reversed"])
    def test_bytes_are_pinned(self, seed, start, end, digest):
        data = synthetic_stream(seed, start, end)
        assert len(data) == max(end - start, 0)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_rate_times_duration(self):
        source = SyntheticFrameSource(seed=3, rate_bytes_per_s=1000)
        source.read_until(0.0)  # anchors the epoch
        assert len(source.read_until(2.0)) == 2000

    def test_windows_are_contiguous(self):
        source = SyntheticFrameSource(seed=3, rate_bytes_per_s=500)
        source.read_until(0.0)
        a = source.read_until(1.0)
        b = source.read_until(3.0)
        assert a + b == synthetic_stream(3, 0, 1500)

    def test_bounded_source_exhausts(self):
        source = SyntheticFrameSource(seed=3, rate_bytes_per_s=100, duration_s=2)
        source.read_until(0.0)
        data = source.read_until(5.0)
        assert len(data) == 200
        assert source.exhausted

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            SyntheticFrameSource(seed=0, rate_bytes_per_s=0)


class TestFileFrames:
    def file_config(self, path):
        config = make_config(rate=100)
        config.source_kind = "file"
        config.source_path = str(path) if path is not None else None
        return config

    def test_replays_file_then_exhausts(self, tmp_path):
        path = tmp_path / "footage.bin"
        path.write_bytes(synthetic_stream(5, 0, 250))
        source = build_frame_source(self.file_config(path))
        source.read_until(0.0)  # anchors the epoch
        reads = [source.read_until(t) for t in (1.0, 2.0)]
        assert not source.exhausted
        reads.append(source.read_until(3.0))
        assert source.exhausted
        assert [len(r) for r in reads] == [100, 100, 50]
        assert b"".join(reads) == path.read_bytes()
        assert source.read_until(4.0) == b""

    def test_missing_source_path(self):
        with pytest.raises(ConfigError):
            build_frame_source(self.file_config(None))


class TestAutoMode:
    def test_three_segments_three_objects(self):
        pipeline = run_pipeline(segments=3, segment_interval_s=2)
        assert len(pipeline.store.keys()) == 3
        packets = [
            r.payload for r in pipeline.transport.log if r.kind == "read" and r.suffix == 0x0011
        ]
        seqs = {decode_key_packet(p).seq for p in packets if len(p) == 64}
        assert {0, 1, 2} <= seqs

    def test_uploaded_objects_are_containers(self):
        from octv.crypto import container_scheme

        pipeline = run_pipeline(segments=3)
        keys = pipeline.store.keys()
        assert keys
        for key in keys:
            data = pipeline.store.get(key)
            assert data[:4] == b"OCTV"
            assert container_scheme(data) in (0x01, 0x02)

    def test_every_packet_but_final_has_object(self):
        pipeline = run_pipeline(segments=3)
        records = pipeline.wallet.records
        assert len(records) == 4
        for record in records[:-1]:
            assert pipeline.store.contains(ObjectKey(record.packet.video_id, "mp4"))
        assert not pipeline.store.contains(ObjectKey(records[-1].packet.video_id, "mp4"))

    def test_plaintext_matches_source_stream(self):
        from octv.client import fetch_and_decrypt

        pipeline = run_pipeline(segments=3, segment_interval_s=2, rate=1000)
        fetcher = LocalStoreFetcher(pipeline.store)
        recovered = b"".join(
            fetch_and_decrypt(pipeline.wallet, record, fetcher).recovered
            for record in pipeline.wallet.records[:3]
        )
        assert recovered == pipeline.source_bytes(0, 6000)

    def test_local_copy_erased_after_upload(self):
        pipeline = run_pipeline(segments=2)
        for record in pipeline.camera.records:
            assert record.state == "uploaded"
            assert record.container == b""

    def test_object_extension_is_the_url_path_extension(self):
        template = "https://h/{id}.jpg?v=1"
        pipeline = run_pipeline(segments=2, url_template=template)
        stored = sorted(key.path for key in pipeline.store.keys())
        named = sorted(
            format_video_url(template, r.packet.video_id).split("/")[-1].split("?")[0]
            for r in pipeline.wallet.records[:2]
        )
        assert stored == named
        assert all(path.endswith(".jpg") for path in stored)

    def test_seq_wraps_255_to_0(self):
        pipeline = run_pipeline(segments=0, run=False, segment_interval_s=1, rate=64)
        pipeline.config.source_duration_s = 3
        pipeline.camera.source.limit = 3 * 64
        pipeline.camera._seq = 255  # test-mode: jump near the wrap
        pipeline.camera.run()
        seqs = [r.seq for r in pipeline.camera.records]
        assert seqs == [255, 0, 1]


class TestRotation:
    def make_runtime(self, **kwargs):
        config = make_config(segment_interval_s=2, **kwargs)
        clock = SimClock(0.0)
        transport = SimTransport(clock=clock)
        source = SyntheticFrameSource(config.source_seed, config.source_rate)
        store = MemoryObjectStore()
        runtime = CameraRuntime(config, clock, source, transport.join("camera"), store,
                                event_sink=lambda e: None)
        runtime.start()
        return runtime, clock, store

    def test_first_packet_carries_zero_prefix(self):
        runtime, _, _ = self.make_runtime()
        main = runtime._segment.files[0].packet
        assert main.prev_hash_prefix == bytes(21)
        assert main.seq == 0

    def test_next_packet_prefix_matches_recomputed_hash(self):
        runtime, clock, store = self.make_runtime()
        clock.advance_to(2.0)
        [record] = runtime.rotate(clock.now())
        container = store.get(ObjectKey(record.video_id, runtime.config.extension))
        next_packet = runtime._segment.files[0].packet
        assert next_packet.prev_hash_prefix == hash_prefix(container)
        assert next_packet.seq == 1

    def test_fresh_key_and_video_id_each_rotation(self):
        runtime, clock, _ = self.make_runtime()
        first = runtime._segment.files[0].packet
        clock.advance_to(2.0)
        runtime.rotate(clock.now())
        second = runtime._segment.files[0].packet
        assert second.key != first.key
        assert second.video_id != first.video_id

    def test_reconnect_interval_equals_segment_interval(self):
        runtime, _, _ = self.make_runtime()
        assert runtime._segment.files[0].packet.reconnect_interval_s == 2


class StepClock:
    """A virtual clock that is not a SimClock: it moves only when told to."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def sleep(self, duration):
        self.t += max(duration, 0.0)

    def advance_to(self, t):
        self.t = max(self.t, t)


class TestOneLoop:
    def test_advance_to_drives_any_virtual_clock(self):
        clock = StepClock()
        transport = SimTransport(clock=clock)
        config = make_config(segment_interval_s=2)
        source = SyntheticFrameSource(config.source_seed, config.source_rate)
        camera = CameraRuntime(config, clock, source, transport.join("camera"),
                               MemoryObjectStore(), event_sink=lambda e: None)
        wallet = Listener(Wallet(), transport.join("listener"), clock).wallet
        camera.advance_to(5.0)
        assert clock.now() == 5.0
        assert [r.received_at for r in wallet.records] == [0.0, 2.0, 4.0]

    @pytest.mark.parametrize("kwargs", [
        {"mode": Mode.AUTO},
        {"mode": Mode.DELAYED, "delay_s": 3},
        {"mode": Mode.MANUAL},
        {"chunk_count": 4, "tiering": True},
    ], ids=["auto", "delayed", "manual", "chunked-tiered"])
    def test_run_matches_advance_to_then_shutdown(self, kwargs):
        """Both drivers give the same events and records; receipt times may
        differ, since ``run`` reaches each event in slices."""

        def outcome(drive):
            pipeline = run_pipeline(segments=3, run=False, **kwargs)
            ids = (n.to_bytes(8, "big") for n in itertools.count(1))
            pipeline.camera._video_id_source = lambda: next(ids)
            drive(pipeline.camera)
            records = [(r.video_id, r.seq, r.start_t, r.end_t, r.state, r.stream, len(r.container))
                       for r in pipeline.camera.records]
            return pipeline.events, records, sorted(key.path for key in pipeline.store.keys())

        def advance_then_shutdown(camera):
            camera.advance_to(3 * camera.config.segment_interval_s)
            camera.shutdown()

        ran = outcome(CameraRuntime.run)
        assert len(ran[1]) == (6 if "tiering" in kwargs else 3)
        assert ran == outcome(advance_then_shutdown)


def min_rule_event(runtime):
    """The earliest event by (due, priority), first in candidate order on a tie:
    boundary, beacon, token, then each pending upload in list order."""
    candidates = []
    segment = runtime._segment
    if segment is not None:
        candidates.append((segment.start_t + runtime.config.segment_interval_s,
                           camera_module._EV_BOUNDARY, None))
        candidates.append((runtime._next_beacon_t, camera_module._EV_BEACON, None))
        if runtime._next_token_t is not None:
            candidates.append((runtime._next_token_t, camera_module._EV_TOKEN, None))
    candidates += [(entry[0], camera_module._EV_UPLOAD, entry) for entry in runtime._pending]
    return min(candidates, key=lambda c: (c[0], c[1])) if candidates else None


class TestEventOrder:
    """``_next_event`` against the min-over-candidates rule, at equal and nearby due times."""

    OFFSETS = (-0.5, 0.0, 0.5)

    def make_runtime(self):
        config = make_config(segment_interval_s=10)
        source = SyntheticFrameSource(config.source_seed, config.source_rate)
        clock = SimClock(0.0)
        runtime = CameraRuntime(config, clock, source, SimTransport(clock=clock).join("camera"),
                                MemoryObjectStore(), event_sink=lambda e: None)
        runtime.start()
        return runtime

    @staticmethod
    def record():
        return SegmentRecord(video_id=bytes(8), seq=0, start_t=0.0, end_t=0.0, container=b"",
                             state="pending")

    def assert_same_pick(self, runtime):
        got, want = runtime._next_event(), min_rule_event(runtime)
        if want is None:
            assert got is None
        else:
            assert got[:2] == want[:2]
            assert got[2] is want[2]

    def test_table(self):
        runtime = self.make_runtime()
        boundary = runtime._segment.start_t + runtime.config.segment_interval_s
        uploads = (self.record(), self.record())
        cases = 0
        for beacon, token, first, second in itertools.product(
                self.OFFSETS, self.OFFSETS + (None,), self.OFFSETS + (None,), self.OFFSETS + (None,)):
            runtime._next_beacon_t = boundary + beacon
            runtime._next_token_t = None if token is None else boundary + token
            runtime._pending = [(boundary + offset, record, attempt)
                                for attempt, (offset, record) in enumerate(zip((first, second), uploads))
                                if offset is not None]
            self.assert_same_pick(runtime)
            cases += 1
        assert cases == 3 * 4 * 4 * 4

    def test_all_at_one_time_boundary_first(self):
        runtime = self.make_runtime()
        due = runtime._segment.start_t + runtime.config.segment_interval_s
        runtime._next_beacon_t = runtime._next_token_t = due
        runtime._pending = [(due, self.record(), 0), (due, self.record(), 0)]
        assert runtime._next_event()[:2] == (due, camera_module._EV_BOUNDARY)
        runtime._pending.append((due - 1e-9, self.record(), 0))
        assert runtime._next_event()[2] is runtime._pending[2]

    def test_uploads_alone_between_segments(self):
        runtime = self.make_runtime()
        runtime._segment = None
        assert runtime._next_event() is None
        runtime._pending = [(4.0, self.record(), 1), (4.0, self.record(), 0), (3.0, self.record(), 2)]
        for _ in range(3):
            self.assert_same_pick(runtime)
            runtime._pending.remove(runtime._next_event()[2])
        assert runtime._next_event() is None


class TestManualMode:
    def test_withholds_but_broadcasts(self):
        pipeline = run_pipeline(segments=3, mode=Mode.MANUAL)
        assert len(pipeline.store.keys()) == 0
        assert len(pipeline.wallet.records) >= 3

    def test_release_uploads_and_erases(self):
        pipeline = run_pipeline(segments=3, mode=Mode.MANUAL, run=False)
        camera = pipeline.camera
        camera.advance_to(2.5)  # one finalized, withheld segment
        withheld_id = next(iter(camera._withheld))
        camera.release_segment(withheld_id)
        assert pipeline.store.contains(ObjectKey(withheld_id, "mp4"))
        record = next(r for r in camera.records if r.video_id == withheld_id)
        assert record.state == "uploaded"
        assert record.container == b""

    def test_control_release_takes_the_video_id_text_form(self, tmp_path):
        pipeline = run_pipeline(segments=3, mode=Mode.MANUAL, run=False)
        pipeline.config.control_dir = str(tmp_path)
        camera = pipeline.camera
        camera.advance_to(2.5)
        text = next(iter(camera._withheld)).hex()
        spaced = text[:12] + "  " + text[14:]  # 16 characters, not 16 hex digits
        (tmp_path / f"release-{spaced}.req").write_text("release\n")
        (tmp_path / f"release-{text.upper()}.req").write_text("release\n")
        camera._poll_control()
        assert "hex digits" in (tmp_path / f"release-{spaced}.resp").read_text()
        assert (tmp_path / f"release-{text.upper()}.resp").read_text() == "ok\n"
        assert pipeline.store.contains(ObjectKey(bytes.fromhex(text), "mp4"))

    def test_release_unknown_id(self):
        pipeline = run_pipeline(segments=2, mode=Mode.MANUAL, run=False)
        pipeline.camera.advance_to(2.5)
        with pytest.raises(NotFoundError):
            pipeline.camera.release_segment(b"\xde\xad\xbe\xef\x00\x00\x00\x01")

    def test_release_in_auto_mode_invalid(self):
        pipeline = run_pipeline(segments=2, mode=Mode.AUTO, run=False)
        pipeline.camera.advance_to(2.5)
        with pytest.raises(InvalidModeError):
            pipeline.camera.release_segment(b"\x00" * 8)

    def test_withheld_budget_evicts_oldest(self):
        pipeline = run_pipeline(segments=4, mode=Mode.MANUAL, run=False, rate=1000)
        pipeline.config.withheld_budget_bytes = 2 * (2000 + 34) + 100  # room for ~2 segments
        pipeline.camera.run()
        assert len(pipeline.camera._withheld) == 2
        events = [e["event"] for e in pipeline.events]
        assert "withheld-evicted" in events

    def test_released_segment_is_not_evicted_again(self):
        pipeline = run_pipeline(segments=6, mode=Mode.MANUAL, run=False, rate=1000)
        camera = pipeline.camera
        camera.advance_to(6.0)  # three withheld segments of 2000 + 34 bytes
        oldest, second, third = camera._withheld
        camera.release_segment(second)
        pipeline.config.withheld_budget_bytes = 2 * (2000 + 34) + 100  # room for two
        camera.advance_to(8.0)  # a fourth withheld segment forces one eviction
        evicted = [e["video_id"] for e in pipeline.events if e["event"] == "withheld-evicted"]
        assert evicted == [oldest.hex()]
        assert list(camera._withheld)[0] == third
        assert pipeline.store.contains(ObjectKey(second, "mp4"))

    def test_stop_names_the_withheld_footage(self):
        pipeline = run_pipeline(segments=2, mode=Mode.MANUAL)
        records = pipeline.camera.records
        assert [r.state for r in records] == ["withheld", "withheld"]
        stop = pipeline.events[-1]
        assert stop["event"] == "stop"
        assert stop["withheld"] == [r.video_id.hex() for r in records]
        assert run_pipeline(segments=2).events[-1]["withheld"] == []

    def test_evicted_ciphertext_is_dropped(self):
        budget = 4096
        pipeline = run_pipeline(segments=200, mode=Mode.MANUAL, run=False, rate=1000)
        pipeline.config.withheld_budget_bytes = budget
        camera = pipeline.camera
        for t in range(1, 401):
            camera.advance_to(float(t))
            assert sum(len(r.container) for r in camera.records) <= budget
        assert len(camera.records) == 200
        evicted = [r for r in camera.records if r.state == "evicted"]
        assert len(evicted) == 198
        assert all(r.container == b"" for r in evicted)
        assert sum(e["event"] == "withheld-evicted" for e in pipeline.events) == 198


class TestDelayedMode:
    def test_upload_at_boundary_plus_delay(self):
        pipeline = run_pipeline(
            segments=4, mode=Mode.DELAYED, delay_s=3, segment_interval_s=2, run=False
        )
        camera = pipeline.camera
        camera.advance_to(2.0)  # boundary: segment 0 finalized
        assert len(pipeline.store.keys()) == 0
        camera.advance_to(4.9)
        assert len(pipeline.store.keys()) == 0
        camera.advance_to(5.0)  # boundary (2.0) + delay (3.0)
        assert len(pipeline.store.keys()) == 1

    def test_delayed_requires_positive_delay(self):
        with pytest.raises(ConfigError):
            make_config(mode=Mode.DELAYED, delay_s=0)


class TestKeyHygiene:
    def test_keys_never_reused(self):
        pipeline = run_pipeline(segments=5, segment_interval_s=1, rate=100)
        assert len(pipeline.key_audit) == len(set(pipeline.key_audit))
        assert len(pipeline.key_audit) >= 6

    def test_no_key_material_in_store_writes(self):
        pipeline = run_pipeline(segments=3)
        blob = b"".join(data for _, data in pipeline.store.written)
        for key in pipeline.key_audit:
            assert key not in blob

    def test_no_plaintext_windows_in_store_writes(self):
        pipeline = run_pipeline(segments=3, rate=1000)
        source = pipeline.source_bytes(0, 6000)
        for _, data in pipeline.store.written:
            for offset in range(0, len(data) - 64 + 1):
                assert data[offset : offset + 64] not in source


class TestUploadRetry:
    def test_backoff_then_success(self):
        inner = MemoryObjectStore()
        flaky = FlakyStore(inner, failures=2)
        pipeline = run_pipeline(segments=2, store=flaky, run=False, segment_interval_s=2)
        pipeline.camera.run()
        assert len(inner.keys()) == 2
        retries = [e for e in pipeline.events if e["event"] == "upload-retry"]
        assert len(retries) == 2

    def test_broadcast_continues_during_outage(self):
        inner = MemoryObjectStore()
        flaky = FlakyStore(inner, failures=3)
        pipeline = run_pipeline(segments=3, store=flaky, run=False, segment_interval_s=2)
        pipeline.camera.run()
        assert len(pipeline.wallet.records) == 4  # every packet still broadcast


class LostReplyStore(MemoryObjectStore):
    """Keeps the first PUT but loses its reply, as a timed-out HTTP client
    would; then fails ``failed_gets`` GETs."""

    def __init__(self, failed_gets=0):
        super().__init__()
        self.reply_lost = False
        self.failed_gets = failed_gets

    def put(self, key, data):
        super().put(key, data)
        if not self.reply_lost:
            self.reply_lost = True
            raise OctvError("timed out (injected)")

    def get(self, key):
        if self.failed_gets:
            self.failed_gets -= 1
            raise OctvError("store unreachable (injected)")
        return super().get(key)


class RacedStore(MemoryObjectStore):
    """Another writer stores its own object under each id between the
    camera's HEAD check and its PUT."""

    def put(self, key, data):
        if not self.contains(key):
            super().put(key, b"foreign footage")
        super().put(key, data)


class TestUploadConflict:
    @pytest.mark.parametrize("failed_gets", [0, 1])
    def test_lost_reply_counts_as_uploaded(self, failed_gets):
        store = LostReplyStore(failed_gets)
        pipeline = run_pipeline(segments=2, store=store, run=False, segment_interval_s=2)
        pipeline.camera.run()
        events = pipeline.events
        assert sum(e["event"] == "upload-retry" for e in events) == 1 + failed_gets
        uploads = sorted(e["video_id"] for e in events if e["event"] == "upload")
        assert uploads == sorted(r.video_id.hex() for r in pipeline.camera.records)
        assert all(r.state == "uploaded" and r.container == b"" for r in pipeline.camera.records)
        assert pipeline.camera._pending == []
        assert len(store.keys()) == 2

    def test_foreign_object_is_a_conflict_not_a_retry(self):
        store = RacedStore()
        pipeline = run_pipeline(segments=2, store=store, run=False, segment_interval_s=2)
        pipeline.camera.run()
        records = pipeline.camera.records
        kinds = [e["event"] for e in pipeline.events if e["event"].startswith("upload")]
        assert kinds == ["upload-conflict"] * len(records)
        assert all(r.state == "conflict" and r.container == b"" for r in records)
        assert pipeline.camera._pending == []
        assert all(store.get(ObjectKey(r.video_id, "mp4")) == b"foreign footage" for r in records)


class DownStore(MemoryObjectStore):
    """Refuses every PUT, counting the attempts per video id."""

    def __init__(self):
        super().__init__()
        self.puts: dict[str, int] = {}

    def put(self, key, data):
        self.puts[key.video_id.hex()] = self.puts.get(key.video_id.hex(), 0) + 1
        raise OctvError("store unreachable (injected)")


class TestUploadsAtStop:
    @pytest.mark.parametrize("kwargs", [{}, {"mode": Mode.DELAYED, "delay_s": 30}],
                             ids=["auto", "delayed"])
    def test_failed_upload_at_stop_is_abandoned(self, kwargs):
        store = DownStore()
        pipeline = run_pipeline(segments=2, store=store, run=False, segment_interval_s=2, **kwargs)
        pipeline.camera.run()
        camera, events = pipeline.camera, pipeline.events
        assert camera._pending == []
        assert all(r.state in ("uploaded", "abandoned") for r in camera.records)
        abandoned = [r for r in camera.records if r.state == "abandoned"]
        assert abandoned and all(r.container == b"" for r in abandoned)
        # every announced attempt was made: attempt n is the (n + 1)th PUT
        for e in events:
            if e["event"] == "upload-retry":
                assert store.puts[e["video_id"]] > e["attempt"]
        gave_up = [e for e in events if e["event"] == "upload-abandoned"]
        assert sorted(e["video_id"] for e in gave_up) == sorted(r.video_id.hex() for r in abandoned)
        assert all(e["stream"] == "main" and e["error"] for e in gave_up)
        assert events[-1]["event"] == "stop"


def evicting_manual_run():
    pipeline = run_pipeline(segments=4, mode=Mode.MANUAL, run=False, rate=1000)
    pipeline.config.withheld_budget_bytes = 2 * (2000 + 34) + 100  # room for two
    pipeline.camera.run()
    return pipeline


@pytest.mark.parametrize("event, state, run", [
    ("upload", "uploaded", lambda: run_pipeline(segments=2)),
    ("upload-conflict", "conflict", lambda: run_pipeline(segments=2, store=RacedStore())),
    ("upload-abandoned", "abandoned", lambda: run_pipeline(segments=2, store=DownStore())),
    ("withheld-evicted", "evicted", evicting_manual_run),
], ids=["uploaded", "conflict", "abandoned", "evicted"])
def test_every_way_a_segment_ends_says_so_alike(event, state, run):
    pipeline = run()
    records = {r.video_id.hex(): r for r in pipeline.camera.records}
    ended = [e for e in pipeline.events if e["event"] == event]
    assert ended
    for e in ended:
        record = records[e["video_id"]]
        assert e["stream"] == record.stream
        assert e["t"] >= record.end_t
        assert record.state == state and record.container == b""


class TestVideoIdCollision:
    def test_regenerates_on_collision(self):
        store = MemoryObjectStore()
        taken = b"\x07" * 8
        store.put(ObjectKey(taken, "mp4"), b"existing")
        ids = iter([taken, b"\x08" * 8])
        pipeline = run_pipeline(segments=1, store=store, run=False)
        pipeline.camera._video_id_source = lambda: next(ids)
        pipeline.camera.start()
        assert pipeline.camera._segment.files[0].packet.video_id == b"\x08" * 8

    def test_fatal_after_three_attempts(self):
        store = MemoryObjectStore()
        taken = b"\x07" * 8
        store.put(ObjectKey(taken, "mp4"), b"existing")
        pipeline = run_pipeline(segments=1, store=store, run=False)
        pipeline.camera._video_id_source = lambda: taken
        with pytest.raises(OctvError, match="3 attempts"):
            pipeline.camera.start()


class TestCharacteristicSurface:
    def test_reads_over_transport(self):
        pipeline = run_pipeline(segments=1, run=False)
        camera = pipeline.camera
        camera.start()
        reader = pipeline.transport.join("reader")
        name = reader.read_characteristic(camera.handle.address, CHAR_NAME)
        assert name.decode("utf-8") == "lobby"
        mode = reader.read_characteristic(camera.handle.address, CHAR_MODE)
        assert mode in (b"\x00", b"\x01", b"\x02")
        packet = reader.read_characteristic(camera.handle.address, CHAR_KEY_PACKET)
        assert len(packet) == 64
        decode_key_packet(packet)

    def test_tier_characteristic_only_when_enabled(self):
        from octv.errors import NoSuchCharacteristicError

        plain = run_pipeline(segments=1, run=False)
        plain.camera.start()
        reader = plain.transport.join("reader")
        with pytest.raises(NoSuchCharacteristicError):
            reader.read_characteristic(plain.camera.handle.address, CHAR_TIER_KEY_PACKET)

        tiered = run_pipeline(segments=1, run=False, tiering=True)
        tiered.camera.start()
        reader2 = tiered.transport.join("reader")
        raw = reader2.read_characteristic(tiered.camera.handle.address, CHAR_TIER_KEY_PACKET)
        tier_packet = decode_key_packet(raw)
        main_packet = decode_key_packet(
            reader2.read_characteristic(tiered.camera.handle.address, CHAR_KEY_PACKET)
        )
        assert tier_packet.video_id != main_packet.video_id
        assert tier_packet.key != main_packet.key


class TestTiering:
    def test_reduced_stream_uploaded_alongside(self):
        from octv.crypto import decrypt_segment

        pipeline = run_pipeline(segments=2, tiering=True, rate=1000)
        main = [r for r in pipeline.camera.records if r.stream == "main"]
        tier = [r for r in pipeline.camera.records if r.stream == "tier"]
        assert len(main) == 2 and len(tier) == 2
        assert len(pipeline.store.keys()) == 4
        # tier plaintext is the subsampled main plaintext
        source = pipeline.source_bytes(0, 2000)
        tier_container = pipeline.store.get(ObjectKey(tier[0].video_id, "mp4"))
        # a trusted listener never reads the tier key packet (0x0012) ...
        tier_reads = [
            rec.payload for rec in pipeline.transport.log
            if rec.kind == "read" and rec.suffix == 0x0012
        ]
        assert tier_reads == []
        # ... so decrypt with the tier key from the camera's audit
        tier_key = pipeline.key_audit[1]
        assert decrypt_segment(tier_container, tier_key) == source[::8]

    def test_tier_stream_chains_its_own_files(self):
        pipeline = run_pipeline(segments=3, tiering=True, run=False)
        camera = pipeline.camera
        camera.start()
        reader = pipeline.transport.join("reader")
        address = camera.handle.address
        previous_tier = None
        for boundary in (2.0, 4.0, 6.0):
            tier = decode_key_packet(reader.read_characteristic(address, CHAR_TIER_KEY_PACKET))
            main = decode_key_packet(reader.read_characteristic(address, CHAR_KEY_PACKET))
            assert tier.seq == main.seq
            if previous_tier is None:
                assert tier.prev_hash_prefix == bytes(21)
            else:
                container = pipeline.store.get(ObjectKey(previous_tier.video_id, "mp4"))
                assert tier.prev_hash_prefix == hash_prefix(container)
            previous_tier = tier
            camera.advance_to(boundary)

    def test_rotate_then_uploads_main_first_at_one_instant(self):
        pipeline = run_pipeline(
            segments=4, tiering=True, mode=Mode.DELAYED, delay_s=2, segment_interval_s=2,
            run=False,
        )
        pipeline.camera.advance_to(4.0)
        at_four = [(e["event"], e.get("stream")) for e in pipeline.events if e.get("t") == 4.0]
        assert at_four == [("rotate", None), ("upload", "main"), ("upload", "tier")]


class BeginPutStore(MemoryObjectStore):
    """A store whose uploads are begun, then finished; ``calls`` records both."""

    def __init__(self, calls: list):
        super().__init__()
        self.calls = calls

    def begin_put(self, key, data):
        self.calls.append(("begin", key.path))

        def finish():
            self.calls.append(("finish", key.path))
            self.put(key, data)

        return finish


def recording_hashes(monkeypatch, calls: list) -> None:
    """Record each ``crypto.hash_prefix`` call in ``calls``, with the container's length."""
    hash_of = camera_module.crypto.hash_prefix

    def recorded(stored_file):
        calls.append(("hash", len(stored_file)))
        return hash_of(stored_file)

    monkeypatch.setattr(camera_module.crypto, "hash_prefix", recorded)


def camera_over(store, **config_kwargs):
    """A started camera on a SimClock and SimTransport that uploads to ``store``."""
    config = make_config(**config_kwargs)
    clock = SimClock(0.0)
    events = []
    camera = CameraRuntime(config, clock, SyntheticFrameSource(config.source_seed, config.source_rate),
                           SimTransport(clock=clock).join("camera"), store,
                           event_sink=events.append)
    camera.start()
    return camera, clock, events


class TestUploadInFlight:
    """In auto mode each PUT is sent before the chain hashes are taken, and its reply
    read after them."""

    def test_begin_then_hash_then_finish(self, monkeypatch):
        calls = []
        store = BeginPutStore(calls)
        camera, clock, _ = camera_over(store, tiering=True)
        main, tier = (ObjectKey(f.packet.video_id, "mp4").path for f in camera._segment.files)
        recording_hashes(monkeypatch, calls)
        clock.advance_to(2.0)
        camera.rotate(2.0)
        assert calls == [("begin", main), ("begin", tier), ("hash", 2034), ("hash", 284),
                         ("finish", main), ("finish", tier)]
        assert store.get(ObjectKey.from_path(main)) and store.get(ObjectKey.from_path(tier))

    def test_manual_mode_hashes_at_seal_time_and_uploads_at_release(self, monkeypatch):
        calls = []
        camera, clock, _ = camera_over(BeginPutStore(calls), mode=Mode.MANUAL)
        recording_hashes(monkeypatch, calls)
        clock.advance_to(2.0)
        [record] = camera.rotate(2.0)
        assert calls == [("hash", 2034)]
        camera.release_segment(record.video_id)
        path = ObjectKey(record.video_id, "mp4").path
        assert calls[1:] == [("begin", path), ("finish", path)]
        assert record.state == "uploaded"

    @pytest.mark.parametrize("tiering", [False, True], ids=["main", "tiered"])
    def test_stored_objects_chain_over_http(self, tiering):
        backing = MemoryObjectStore()
        server = StoreServer(backing)
        server.start()
        try:
            camera, clock, _ = camera_over(HttpStoreClient(server.base_url()), tiering=tiering)
            for boundary in (2.0, 4.0, 6.0):
                clock.advance_to(boundary)
                records = camera.rotate(boundary)
                following = [f.packet for f in camera._segment.files]
                assert len(records) == len(following) == (2 if tiering else 1)
                for record, packet in zip(records, following):
                    assert record.state == "uploaded"
                    stored = backing.get(ObjectKey(record.video_id, "mp4"))
                    assert hash_prefix(stored) == packet.prev_hash_prefix
        finally:
            server.stop()

    def test_failed_upload_still_chains_and_is_retried(self):
        backing = MemoryObjectStore()
        server = StoreServer(backing)
        server.start()
        port = server.port
        camera, clock, events = camera_over(HttpStoreClient(server.base_url(), timeout=2.0))
        clock.advance_to(2.0)
        [first] = camera.rotate(2.0)
        assert first.state == "uploaded"
        server.stop()
        clock.advance_to(4.0)
        [record] = camera.rotate(4.0)
        assert record.state == "pending" and record.container
        assert hash_prefix(record.container) == camera._segment.files[0].packet.prev_hash_prefix
        [retry] = [e for e in events if e["event"] == "upload-retry"]
        assert retry["video_id"] == record.video_id.hex() and retry["attempt"] == 1
        assert camera._pending == [(5.0, record, 1)]
        container = record.container
        server = StoreServer(backing, port=port)
        server.start()
        try:
            camera.advance_to(5.0)
        finally:
            server.stop()
        assert record.state == "uploaded" and record.container == b""
        assert backing.get(ObjectKey(record.video_id, "mp4")) == container


class TestChunkedCamera:
    def test_chunked_containers_and_token_adverts(self):
        pipeline = run_pipeline(
            segments=2, chunk_count=4, segment_interval_s=2, token_advert_interval_ms=500
        )
        from octv.crypto import container_scheme

        for key in pipeline.store.keys():
            assert container_scheme(pipeline.store.get(key)) == 0x02
        token_adverts = [
            r for r in pipeline.transport.log
            if r.kind == "adv" and r.payload and r.payload[0] == 0x02
        ]
        assert token_adverts
        indices = {r.payload[9] << 8 | r.payload[10] for r in token_adverts}
        assert indices == {0, 1, 2, 3}

    def test_client_recovers_chunked_segment_with_all_tokens(self):
        from octv.client import fetch_and_decrypt

        pipeline = run_pipeline(
            segments=1, chunk_count=4, segment_interval_s=2, token_advert_interval_ms=500
        )
        record = pipeline.wallet.records[0]
        assert len(pipeline.wallet.tokens_for(record.packet.video_id)) == 4
        result = fetch_and_decrypt(pipeline.wallet, record, LocalStoreFetcher(pipeline.store))
        assert result.recovered == pipeline.source_bytes(0, 2000)


class TestConfigFile:
    def test_parse_full_config(self, tmp_path):
        path = tmp_path / "camera.conf"
        path.write_text(
            "# test camera\n"
            "name = Lobby Camera\n"
            "mode = manual\n"
            "location = 54.978, -1.617\n"
            "url_template = https://files.example/{id}.mp4\n"
            "camera_id = 0102030405060708\n"
            "segment_interval_s = 5\n"
            "advert_interval_ms = 250\n"
            "chunk_count = 6\n"
            "token_advert_interval_ms = 100\n"
            "store = /tmp/objects\n"
            "seed = 7\n"
            "rate_bytes_per_s = 500\n"
            "duration_s = 10\n"
        )
        config = parse_camera_config(path)
        assert config.descriptor.name == "Lobby Camera"
        assert config.mode == Mode.MANUAL
        assert config.camera_id == bytes.fromhex("0102030405060708")
        assert config.segment_interval_s == 5
        assert config.chunking.chunk_count == 6
        assert config.source_rate == 500
        assert config.source_duration_s == 10.0
        assert config.descriptor.location.lat == 54.978

    def test_text_location_and_defaults(self, tmp_path):
        path = tmp_path / "camera.conf"
        path.write_text(
            "name = cam\n"
            "url_template = file:///tmp/store/{id}.mp4\n"
            "segment_interval_s = 1\n"
            "location = text:east stairwell\n"
        )
        config = parse_camera_config(path)
        assert config.descriptor.location == "east stairwell"
        assert config.mode == Mode.AUTO
        assert len(config.camera_id) == 8

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "camera.conf"
        path.write_text("name = cam\n")
        with pytest.raises(ConfigError):
            parse_camera_config(path)

    @pytest.mark.parametrize("line, key", [
        ("tiering = on", "tiering"),
        ("camera_id = 01 02 03 04 05 06 07 08", "camera_id"),
        ("camera_id = 0x0102030405060708", "camera_id"),
        ("mode = bogus", "mode"),
    ])
    def test_unreadable_value_names_file_and_key(self, tmp_path, line, key):
        path = tmp_path / "camera.conf"
        path.write_text(
            "name = cam\n"
            "url_template = file:///tmp/store/{id}.mp4\n"
            "segment_interval_s = 1\n"
            f"{line}\n"
        )
        with pytest.raises(ConfigError) as info:
            parse_camera_config(path)
        assert str(path) in str(info.value) and repr(key) in str(info.value)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "camera.conf"
        path.write_text("name cam\n")
        with pytest.raises(ConfigError, match="line"):
            parse_camera_config(path)


class TestConfigFlag:
    @pytest.mark.parametrize("value, flag", [
        (True, True), (False, False), ("TRUE", True), ("Yes", True), ("1", True), (1, True),
        ("false", False), ("NO", False), ("0", False), (0, False),
    ])
    def test_booleans_and_their_words(self, value, flag):
        assert ConfigReader({"tiering": value}).get("tiering", config_flag) is flag

    @pytest.mark.parametrize("value", ["maybe", "on", "off", "", " true", "t", 2, 1.0, None, []])
    def test_anything_else_names_the_key(self, value):
        with pytest.raises(ConfigError, match="'tiering'"):
            ConfigReader({"tiering": value}).get("tiering", config_flag)


# The keys a camera config file and a scenario camera share, each with a
# good and a bad value; camera.camera_config alone reads them.
SHARED_KEYS = {
    "mode": ("manual", "bogus"),
    "chunk_count": ("4", "1.5"),
    "token_advert_interval_ms": ("250", "10"),
    "url_template": ("https://files.example/{id}.jpg", "bogus"),
    "segment_interval_s": ("7", "0"),
    "advert_interval_ms": ("300", "10"),
    "delay_s": ("5", "soon"),
    "tiering": ("yes", "maybe"),
}
ABSENT = None
SHARED_BASE = {"name": "shared", "url_template": "https://files.example/{id}.mp4",
               "segment_interval_s": "2", "chunk_count": "3"}


def shared_settings(read):
    """What the shared keys decide in the config ``read`` returns, or its ConfigError's text."""
    try:
        config = read()
    except ConfigError as exc:
        return str(exc)
    return (config.mode, config.descriptor.url_template, config.chunking,
            config.segment_interval_s, config.advert_interval_ms, config.delay_s, config.tiering)


@pytest.mark.parametrize("key, value", [
    (key, value) for key, values in SHARED_KEYS.items() for value in (*values, ABSENT)
], ids=lambda value: "absent" if value is ABSENT else None)
def test_file_and_scenario_read_shared_keys_alike(tmp_path, key, value):
    values = {k: v for k, v in SHARED_BASE.items() if k != key}
    if value is not ABSENT:
        values[key] = value
    path = tmp_path / "camera.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    scenario = {"duration_s": 1, "cameras": [{"position": [0, 0], **values}]}
    in_file = shared_settings(lambda: parse_camera_config(path))
    in_scenario = shared_settings(lambda: scenario_from_dict(scenario).cameras[0].config)
    if key == "url_template" and value is ABSENT:  # required in a file; a scenario has a default
        assert key in in_file and in_scenario[1] == "https://footage.example/{id}.mp4"
    elif isinstance(in_file, str) or isinstance(in_scenario, str):
        assert isinstance(in_file, str) and isinstance(in_scenario, str)
        assert key in in_file and key in in_scenario
    else:
        assert in_file == in_scenario


def test_only_camera_config_names_a_shared_key():
    """No call but those in camera.camera_config passes a shared key's name,
    so the two readers cannot drift apart on one again."""
    hits = []
    for path in sorted(Path(octv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {id(node) for top in tree.body if path.name == "camera.py"
                  and isinstance(top, ast.FunctionDef) and top.name == "camera_config"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in reader:
                continue
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                if isinstance(arg, ast.Constant) and arg.value in SHARED_KEYS:
                    hits.append(f"{path.name}:{node.lineno}: {arg.value}")
    assert hits == []
