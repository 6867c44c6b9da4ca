import secrets

import pytest

from harness import make_descriptor, run_pipeline
from octv.client import (
    GapRule,
    Wallet,
    WalletRecord,
    export_wallet,
    fetch_and_decrypt,
    group_sessions,
    import_wallet,
)
from octv.crypto import ChainStatus, ChunkToken, encrypt_segment, generate_key, generate_video_id
from octv.errors import IntegrityError, NotFoundError, WalletError
from octv.protocol import Coordinates, KeyPacket, Mode
from octv.store import LocalStoreFetcher, MemoryObjectStore, ObjectKey


def make_record(
    *,
    received_at=0.0,
    camera_address=b"\xca\x00\x00\x00\x00\x01",
    seq=0,
    reconnect_interval_s=60,
    video_id=None,
    location=Coordinates(54.97, -1.61),
    name="cam",
) -> WalletRecord:
    return WalletRecord(
        received_at=received_at,
        camera_address=camera_address,
        descriptor=make_descriptor(name=name, location=location),
        packet=KeyPacket(
            key=generate_key(),
            seq=seq,
            reconnect_interval_s=reconnect_interval_s,
            video_id=video_id if video_id is not None else generate_video_id(),
            prev_hash_prefix=bytes(21),
        ),
    )


class TestWalletPersistence:
    def test_ingest_survives_restart(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        record = make_record(received_at=12.5)
        assert wallet.ingest(record)
        wallet.close()

        reopened = Wallet(path)
        assert len(reopened.records) == 1
        loaded = reopened.records[0]
        assert loaded.packet == record.packet
        assert loaded.received_at == 12.5
        assert loaded.descriptor == record.descriptor
        assert loaded.camera_address == record.camera_address

    def test_duplicate_dedup(self, tmp_path):
        wallet = Wallet(tmp_path / "wallet.txt")
        record = make_record()
        assert wallet.ingest(record)
        duplicate = WalletRecord(
            received_at=record.received_at + 5,
            camera_address=record.camera_address,
            descriptor=record.descriptor,
            packet=record.packet,
        )
        assert not wallet.ingest(duplicate)
        assert len(wallet.records) == 1

    def test_tokens_persist_and_attach(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        record = make_record()
        video_id = record.packet.video_id
        wallet.ingest(record)
        token = ChunkToken(secrets.token_bytes(16), 2, video_id)
        assert wallet.add_token(token, 1.0)
        assert not wallet.add_token(token, 2.0)  # dedup by (video, index)
        wallet.close()

        reopened = Wallet(path)
        assert reopened.tokens_for(video_id) == [token]
        assert reopened.records[0].tokens == [token]

    def test_tokens_before_record(self):
        wallet = Wallet()
        video_id = generate_video_id()
        token = ChunkToken(secrets.token_bytes(16), 0, video_id)
        wallet.add_token(token, 1.0)
        record = make_record(video_id=video_id)
        wallet.ingest(record)
        assert wallet.records[0].tokens == [token]

    def test_corrupt_line_names_line_number(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        wallet.ingest(make_record())
        wallet.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("R truncated line 00000000\n")
        with pytest.raises(WalletError, match="line 3"):
            Wallet(path)

    def test_checksum_mismatch_detected(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        wallet.ingest(make_record())
        wallet.close()
        text = path.read_text().splitlines()
        broken = text[1][:-8] + "deadbeef"
        path.write_text("\n".join([text[0], broken]) + "\n")
        with pytest.raises(WalletError, match="line 2"):
            Wallet(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "wallet.txt"
        path.write_text("not a wallet\n")
        with pytest.raises(WalletError, match="line 1"):
            Wallet(path)


class TestExportImport:
    def test_roundtrip_equal_wallets(self, tmp_path):
        wallet = Wallet()
        records = [make_record(received_at=float(i), seq=i) for i in range(4)]
        for record in records:
            wallet.ingest(record)
        wallet.add_token(ChunkToken(bytes(16), 0, records[0].packet.video_id), 0.5)

        out = tmp_path / "export.txt"
        export_wallet(wallet, None, out)
        imported = import_wallet(out)
        assert [r.packet for r in imported.records] == [r.packet for r in wallet.records]
        assert imported.tokens_for(records[0].packet.video_id) == wallet.tokens_for(
            records[0].packet.video_id
        )

    def test_time_range_filter(self, tmp_path):
        wallet = Wallet()
        for i in range(5):
            wallet.ingest(make_record(received_at=float(i * 10), seq=i))
        out = tmp_path / "export.txt"
        count = export_wallet(wallet, (10.0, 30.0), out)
        assert count == 2
        imported = import_wallet(out)
        assert [r.received_at for r in imported.records] == [10.0, 20.0]

    def test_empty_range_header_only(self, tmp_path):
        wallet = Wallet()
        wallet.ingest(make_record())
        out = tmp_path / "export.txt"
        export_wallet(wallet, (100.0, 100.0), out)
        assert out.read_text() == "octv-wallet 1\n"
        assert import_wallet(out).records == []

    def test_truncated_line_errors_with_number(self, tmp_path):
        out = tmp_path / "export.txt"
        wallet = Wallet()
        wallet.ingest(make_record())
        export_wallet(wallet, None, out)
        text = out.read_text()
        out.write_text(text[: len(text) // 2] + "\n")
        with pytest.raises(WalletError, match="line 2"):
            import_wallet(out)


class TestSessions:
    def test_steady_packets_one_session(self):
        wallet = Wallet()
        for i, t in enumerate([0.0, 60.0, 120.0]):
            wallet.ingest(make_record(received_at=t, seq=i, reconnect_interval_s=60))
        sessions = group_sessions(wallet)
        assert len(sessions) == 1
        assert len(sessions[0].records) == 3
        assert sessions[0].start_t == 0.0
        assert sessions[0].end_t == 120.0

    def test_long_gap_splits(self):
        wallet = Wallet()
        wallet.ingest(make_record(received_at=0.0, seq=0, reconnect_interval_s=60))
        wallet.ingest(make_record(received_at=300.0, seq=1, reconnect_interval_s=60))
        sessions = group_sessions(wallet)
        assert len(sessions) == 2

    def test_gap_threshold_uses_max_of_ri_and_floor(self):
        # RI=10: threshold max(20, 90) = 90, so an 80 s gap stays together
        wallet = Wallet()
        wallet.ingest(make_record(received_at=0.0, seq=0, reconnect_interval_s=10))
        wallet.ingest(make_record(received_at=80.0, seq=1, reconnect_interval_s=10))
        assert len(group_sessions(wallet)) == 1

    def test_empty_wallet(self):
        assert group_sessions(Wallet()) == []

    def test_nearby_cameras_share_group_id(self):
        wallet = Wallet()
        # ~11 m apart in latitude
        a = make_record(camera_address=b"\xca" + bytes(5), location=Coordinates(50.0, 0.0))
        b = make_record(
            camera_address=b"\xcb" + bytes(5), location=Coordinates(50.0001, 0.0), seq=1
        )
        far = make_record(
            camera_address=b"\xcc" + bytes(5), location=Coordinates(50.01, 0.0), seq=2
        )
        for record in (a, b, far):
            wallet.ingest(record)
        sessions = group_sessions(wallet)
        groups = {s.camera_address: s.group_id for s in sessions}
        assert groups[a.camera_address] == groups[b.camera_address]
        assert groups[far.camera_address] != groups[a.camera_address]

    def test_text_location_groups_by_address(self):
        wallet = Wallet()
        a = make_record(camera_address=b"\xca" + bytes(5), location="hallway")
        b = make_record(camera_address=b"\xcb" + bytes(5), location="hallway", seq=1)
        for record in (a, b):
            wallet.ingest(record)
        sessions = group_sessions(wallet)
        groups = {s.camera_address: s.group_id for s in sessions}
        assert groups[a.camera_address] != groups[b.camera_address]

    def test_partition_independent_of_ingest_order(self):
        records = [make_record(received_at=float(i * 50), seq=i) for i in range(6)]
        forward, backward = Wallet(), Wallet()
        for record in records:
            forward.ingest(record)
        for record in reversed(records):
            backward.ingest(record)
        a = [(s.group_id, [r.packet.seq for r in s.records]) for s in group_sessions(forward)]
        b = [(s.group_id, [r.packet.seq for r in s.records]) for s in group_sessions(backward)]
        assert a == b

    def test_gap_rule_overridable(self):
        wallet = Wallet()
        wallet.ingest(make_record(received_at=0.0, seq=0, reconnect_interval_s=10))
        wallet.ingest(make_record(received_at=80.0, seq=1, reconnect_interval_s=10))
        tight = GapRule(ri_multiplier=2.0, min_gap_s=30.0)
        assert len(group_sessions(wallet, tight)) == 2


class TestSuccessor:
    def test_packet_one_seq_lap_later_is_not_the_successor(self):
        wallet = Wallet()
        record = make_record(received_at=0.0, seq=255, reconnect_interval_s=10)
        next_lap = make_record(received_at=256 * 10 + 3.0, seq=0, reconnect_interval_s=10)
        wallet.ingest(record)
        wallet.ingest(next_lap)
        assert wallet.successor_of(record) is None
        successor = make_record(received_at=19.0, seq=0, reconnect_interval_s=10)
        wallet.ingest(successor)
        assert wallet.successor_of(record) is successor


class TestFetchAndDecrypt:
    def test_end_to_end_byte_identical(self):
        pipeline = run_pipeline(segments=3, segment_interval_s=2, rate=1000)
        fetcher = LocalStoreFetcher(pipeline.store)
        recovered = b""
        for record in pipeline.wallet.records[:3]:
            result = fetch_and_decrypt(pipeline.wallet, record, fetcher)
            assert result.chain_status == ChainStatus.OK
            recovered += result.recovered
        assert recovered == pipeline.source_bytes(0, 6000)

    def test_tamper_integrity_error_and_chain_mismatch(self):
        store = MemoryObjectStore()
        pipeline = run_pipeline(segments=3, store=store)
        target = pipeline.wallet.records[1]
        key = ObjectKey(target.packet.video_id, "mp4")
        tampered = bytearray(store._objects[key.path])
        tampered[40] ^= 0x01
        store._objects[key.path] = bytes(tampered)

        with pytest.raises(IntegrityError) as excinfo:
            fetch_and_decrypt(pipeline.wallet, target, LocalStoreFetcher(store))
        assert excinfo.value.chain_status == ChainStatus.MISMATCH

    def test_successor_with_zero_sentinel_gives_no_predecessor(self):
        store = MemoryObjectStore()
        wallet = Wallet()
        record = make_record(received_at=0.0, seq=0)
        wallet.ingest(record)
        wallet.ingest(make_record(received_at=60.0, seq=1))  # a restarted chain
        container = encrypt_segment(b"footage", record.packet.key)
        store.put(ObjectKey(record.packet.video_id, "mp4"), container)
        result = fetch_and_decrypt(wallet, record, LocalStoreFetcher(store))
        assert result.chain_status == ChainStatus.NO_PREDECESSOR
        assert result.plaintext == b"footage"

    def test_withheld_footage_not_found(self):
        pipeline = run_pipeline(segments=2, mode=Mode.MANUAL)
        record = pipeline.wallet.records[0]
        with pytest.raises(NotFoundError, match="withheld or unavailable"):
            fetch_and_decrypt(pipeline.wallet, record, LocalStoreFetcher(pipeline.store))

    def test_partial_chunk_decrypt(self):
        pipeline = run_pipeline(segments=1, chunk_count=4, segment_interval_s=2)
        record = pipeline.wallet.records[0]
        # keep only tokens 1 and 2
        video_id = record.packet.video_id
        kept = {1, 2}
        all_tokens = pipeline.wallet._tokens[video_id]
        pipeline.wallet._tokens[video_id] = {
            i: t for i, t in all_tokens.items() if i in kept
        }
        result = fetch_and_decrypt(pipeline.wallet, record, LocalStoreFetcher(pipeline.store))
        unlocked = {index for index, data in result.chunks if data is not None}
        assert unlocked == kept
        source = pipeline.source_bytes(0, 2000)
        assert result.recovered == source[500:1500]


class TestAnonymity:
    def test_client_sends_no_wallet_material(self):
        pipeline = run_pipeline(segments=3)
        listener_address = pipeline.listener.peer.address

        outbound_read_suffixes = [
            record.suffix
            for record in pipeline.transport.log
            if record.kind == "read" and record.sender == listener_address
        ]
        assert outbound_read_suffixes  # the client did read
        # reads carry only a 16-bit suffix; nothing else goes out
        assert all(isinstance(s, int) and s <= 0xFFFF for s in outbound_read_suffixes)

        adverts_from_listener = [
            record
            for record in pipeline.transport.log
            if record.kind == "adv" and record.sender == listener_address
        ]
        assert adverts_from_listener == []

    def test_keys_never_fetchable_from_store_writes(self):
        pipeline = run_pipeline(segments=3)
        written = b"".join(data for _, data in pipeline.store.written)
        for record in pipeline.wallet.records:
            assert record.packet.key not in written

    def test_raw_tokens_never_reach_the_store(self):
        pipeline = run_pipeline(segments=2, chunk_count=4, segment_interval_s=2)
        written = b"".join(data for _, data in pipeline.store.written)
        all_tokens = [
            token
            for per_video in pipeline.wallet._tokens.values()
            for token in per_video.values()
        ]
        assert all_tokens
        for token in all_tokens:
            assert token.token not in written


class TestListenerBehaviour:
    def test_rebroadcast_does_not_duplicate(self):
        # advert interval far shorter than segment: many beacons per seq
        pipeline = run_pipeline(segments=2, segment_interval_s=2, advert_interval_ms=100)
        seqs = [r.packet.seq for r in pipeline.wallet.records]
        assert len(seqs) == len(set(seqs))

    def test_descriptor_snapshot_captured(self):
        pipeline = run_pipeline(segments=1)
        record = pipeline.wallet.records[0]
        assert record.descriptor.name == "lobby"
        assert record.descriptor.url_template == "https://files.example/{id}.mp4"
        assert isinstance(record.descriptor.location, Coordinates)
