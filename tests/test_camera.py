import pytest

from harness import FlakyStore, make_config, run_pipeline
from octv.camera import (
    CameraRuntime,
    SyntheticFrameSource,
    parse_camera_config,
    rotate_segment,
    synthetic_stream,
)
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
)
from octv.store import MemoryObjectStore, ObjectKey
from octv.transport import loopback_transport


class TestSyntheticFrames:
    def test_same_seed_same_bytes(self):
        assert synthetic_stream(9, 0, 4096) == synthetic_stream(9, 0, 4096)

    def test_different_seeds_differ(self):
        assert synthetic_stream(1, 0, 4096) != synthetic_stream(2, 0, 4096)

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
        from octv.store import LocalStoreFetcher

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
        transport = loopback_transport(clock)
        source = SyntheticFrameSource(config.source_seed, config.source_rate)
        runtime = CameraRuntime(config, clock, source, transport, MemoryObjectStore(),
                                event_sink=lambda e: None)
        runtime.start()
        return runtime, clock

    def test_first_packet_carries_zero_prefix(self):
        runtime, _ = self.make_runtime()
        assert runtime._segment.packet.prev_hash_prefix == bytes(21)
        assert runtime._segment.packet.seq == 0

    def test_next_packet_prefix_matches_recomputed_hash(self):
        runtime, clock = self.make_runtime()
        clock.advance_to(2.0)
        record, next_packet = rotate_segment(runtime)
        assert next_packet.prev_hash_prefix == hash_prefix(record.container)
        assert next_packet.seq == 1

    def test_fresh_key_and_video_id_each_rotation(self):
        runtime, clock = self.make_runtime()
        first = runtime._segment
        first_key, first_vid = first.key, first.video_id
        clock.advance_to(2.0)
        rotate_segment(runtime)
        assert runtime._segment.key != first_key
        assert runtime._segment.video_id != first_vid

    def test_reconnect_interval_equals_segment_interval(self):
        runtime, _ = self.make_runtime()
        assert runtime._segment.packet.reconnect_interval_s == 2


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


class TestVideoIdCollision:
    def test_regenerates_on_collision(self):
        store = MemoryObjectStore()
        taken = b"\x07" * 8
        store.put(ObjectKey(taken, "mp4"), b"existing")
        ids = iter([taken, b"\x08" * 8])
        pipeline = run_pipeline(segments=1, store=store, run=False)
        pipeline.camera._video_id_source = lambda: next(ids)
        pipeline.camera.start()
        assert pipeline.camera._segment.video_id == b"\x08" * 8

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
        from octv.store import LocalStoreFetcher

        pipeline = run_pipeline(segments=2, tiering=True, rate=1000)
        main = [r for r in pipeline.camera.records if r.stream == "main"]
        tier = [r for r in pipeline.camera.records if r.stream == "tier"]
        assert len(main) == 2 and len(tier) == 2
        assert len(pipeline.store.keys()) == 4
        # tier plaintext is the subsampled main plaintext
        source = pipeline.source_bytes(0, 2000)
        tier_container = pipeline.store.get(ObjectKey(tier[0].video_id, "mp4"))
        tier_record = next(
            r for r in pipeline.wallet.records if r.packet.video_id == main[0].video_id
        )
        # the tier key comes over characteristic 0x0012; recover it from the transport log
        tier_reads = [
            rec.payload for rec in pipeline.transport.log
            if rec.kind == "read" and rec.suffix == 0x0012
        ]
        # listener does not read 0x0012; decrypt via the camera audit instead
        tier_key = pipeline.key_audit[1]
        assert decrypt_segment(tier_container, tier_key) == source[::8]


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
        from octv.store import LocalStoreFetcher

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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "camera.conf"
        path.write_text("name cam\n")
        with pytest.raises(ConfigError, match="line"):
            parse_camera_config(path)
