import errno
import random
import secrets
import zlib

import pytest

from harness import LocalStoreFetcher, make_descriptor, run_pipeline
from octv import cli
from octv import client as client_module
from octv.client import (
    GapRule,
    Listener,
    Wallet,
    WalletRecord,
    export_wallet,
    fetch_and_decrypt,
    group_sessions,
    import_wallet,
)
from octv.clocks import SimClock
from octv.crypto import (
    ZERO_HASH_PREFIX,
    ChainStatus,
    ChunkToken,
    encrypt_segment,
    generate_key,
    generate_video_id,
    hash_prefix,
    verify_chain,
)
from octv.errors import IntegrityError, NoSuchCharacteristicError, NotFoundError, WalletError
from octv.protocol import (
    CHAR_KEY_PACKET,
    CHAR_LOCATION,
    CHAR_NAME,
    CHAR_URL_FORMAT,
    DESCRIPTOR_CHARS,
    Beacon,
    Coordinates,
    KeyPacket,
    Mode,
    encode_advertisement,
    encode_characteristic,
    encode_key_packet,
)
from octv.store import MemoryObjectStore, ObjectKey
from octv.transport import SimTransport


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


@pytest.fixture
def open_wallet():
    """Opens file-backed wallets and closes every one of them at teardown."""
    wallets = []

    def opener(path):
        wallets.append(Wallet(path))
        return wallets[-1]

    yield opener
    for wallet in wallets:
        wallet.close()


class TestWalletPersistence:
    def test_ingest_survives_restart(self, tmp_path, open_wallet):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        record = make_record(received_at=12.5)
        assert wallet.ingest(record)
        wallet.close()

        reopened = open_wallet(path)
        assert len(reopened.records) == 1
        loaded = reopened.records[0]
        assert loaded.packet == record.packet
        assert loaded.received_at == 12.5
        assert loaded.descriptor == record.descriptor
        assert loaded.camera_address == record.camera_address

    def test_duplicate_dedup(self, tmp_path, open_wallet):
        wallet = open_wallet(tmp_path / "wallet.txt")
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

    def test_tokens_persist_and_attach(self, tmp_path, open_wallet):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        record = make_record()
        video_id = record.packet.video_id
        wallet.ingest(record)
        token = ChunkToken(secrets.token_bytes(16), 2, video_id)
        assert wallet.add_token(token, 1.0)
        assert not wallet.add_token(token, 2.0)  # dedup by (video, index)
        wallet.close()

        reopened = open_wallet(path)
        assert reopened.tokens_for(video_id) == [token]
        assert reopened.tokens_for(reopened.records[0].packet.video_id) == [token]

    def test_failed_fsync_acknowledges_nothing(self, tmp_path, open_wallet, monkeypatch):
        """A fact whose line cannot be made durable is not held, so the same
        fact is taken again once the disk works."""
        path = tmp_path / "wallet.txt"
        wallet = open_wallet(path)
        record = make_record()
        token = ChunkToken(secrets.token_bytes(16), 0, record.packet.video_id)

        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(client_module.os, "fsync", failing_fsync)
        with pytest.raises(WalletError):
            wallet.ingest(record)
        with pytest.raises(WalletError):
            wallet.add_token(token, 1.0)
        assert wallet.records == [] and wallet.by_camera == {}
        assert wallet.tokens_for(token.video_id) == []
        monkeypatch.undo()

        assert wallet.ingest(record)
        assert wallet.add_token(token, 1.0)
        assert wallet.records == [record]
        assert wallet.by_camera == {record.camera_address: [record]}
        assert wallet.tokens_for(token.video_id) == [token]
        wallet.close()
        reopened = open_wallet(path)  # a line written before its failed fsync is a repeat
        assert [r.packet for r in reopened.records] == [record.packet]
        assert reopened.tokens_for(token.video_id) == [token]

    def test_tokens_before_record(self):
        wallet = Wallet()
        video_id = generate_video_id()
        token = ChunkToken(secrets.token_bytes(16), 0, video_id)
        wallet.add_token(token, 1.0)
        record = make_record(video_id=video_id)
        wallet.ingest(record)
        assert wallet.tokens_for(wallet.records[0].packet.video_id) == [token]

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

    def test_torn_last_line_dropped(self, tmp_path, open_wallet):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        kept = make_record(seq=0)
        wallet.ingest(kept)
        wallet.close()
        torn = Wallet()
        torn.ingest(make_record(seq=1))
        export_wallet(torn, None, tmp_path / "line.txt")
        line = (tmp_path / "line.txt").read_text().splitlines()[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])  # a crash mid-append: no newline

        reopened = Wallet(path)
        assert [r.packet for r in reopened.records] == [kept.packet]
        assert path.read_text().endswith("\n")
        later = make_record(seq=2)
        assert reopened.ingest(later)
        reopened.close()
        assert [r.packet for r in open_wallet(path).records] == [kept.packet, later.packet]

    def test_bad_terminated_last_line_stays_fatal(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        wallet.ingest(make_record())
        wallet.close()
        line = path.read_text().splitlines()[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2] + "\n")
        before = path.read_bytes()
        with pytest.raises(WalletError, match="line 3"):
            Wallet(path)
        assert path.read_bytes() == before

    def test_non_utf8_line_names_line_number(self, tmp_path):
        path = tmp_path / "wallet.txt"
        path.write_bytes(b"octv-wallet 1\nR \xff\xfe 00000000\n")
        with pytest.raises(WalletError, match="line 2"):
            Wallet(path)

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029",
                                      "\r"])
    def test_only_newline_ends_a_line(self, tmp_path, mark):
        # str.splitlines() would also break at ``mark``, and misnumber every line after it
        path = tmp_path / "wallet.txt"
        path.write_text(f"octv-wallet 1\n\n{mark} \nR bad 00000000\n", encoding="utf-8", newline="")
        with pytest.raises(WalletError, match="line 4: "):
            Wallet(path)

    def test_crlf_wallet_loads(self, tmp_path, open_wallet):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        records = [make_record(seq=seq) for seq in range(2)]
        for record in records:
            wallet.ingest(record)
        wallet.close()
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert [r.packet for r in open_wallet(path).records] == [r.packet for r in records]

    def test_one_camera_shares_one_descriptor(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        for seq in range(3):
            wallet.ingest(make_record(seq=seq))
        wallet.ingest(make_record(camera_address=b"\xcb" + bytes(5), name="other"))
        wallet.close()
        reopened = Wallet(path)
        reopened.close()
        first, *same_camera, other = reopened.records
        assert all(r.descriptor is first.descriptor for r in same_camera)
        assert other.descriptor.name == "other"

    def test_bad_descriptor_blob_names_line_number(self, tmp_path):
        path = tmp_path / "wallet.txt"
        wallet = Wallet(path)
        wallet.ingest(make_record(seq=0))
        wallet.close()
        lines = path.read_text().splitlines()
        fields = lines[1].rpartition(" ")[0].split(" ")
        fields[3] = fields[3][:-2]  # the same camera's blob, one byte short
        body = " ".join(fields)
        lines.append(f"{body} {zlib.crc32(body.encode('ascii')):08x}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalletError, match="line 3: descriptor blob truncated"):
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

    def test_import_skips_torn_tail_without_writing(self, tmp_path):
        out = tmp_path / "export.txt"
        wallet = Wallet()
        kept = make_record(seq=0)
        wallet.ingest(kept)
        wallet.add_token(ChunkToken(bytes(16), 0, kept.packet.video_id), 0.5)
        export_wallet(wallet, None, out)
        line = out.read_text().splitlines()[1]
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])  # a crash mid-append: no newline
        before = out.read_bytes()
        imported = import_wallet(out)
        assert [r.packet for r in imported.records] == [kept.packet]
        assert imported.token_receipts() == wallet.token_receipts()
        assert out.read_bytes() == before


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


def brute_successor(wallet, record):
    """``Wallet.successor_of`` as a scan of every record in the wallet."""
    want_seq = (record.packet.seq + 1) % 256
    latest = record.received_at + 2 * record.packet.reconnect_interval_s
    candidates = [
        r
        for r in wallet.records
        if r.camera_address == record.camera_address
        and r.packet.seq == want_seq
        and record.received_at <= r.received_at <= latest
    ]
    return min(candidates, key=lambda r: r.received_at) if candidates else None


def brute_camera_records(wallet, key):
    """Each camera's records, by a scan of every record, sorted by ``key``."""
    return [
        (address, sorted((r for r in wallet.records if r.camera_address == address), key=key))
        for address in sorted({r.camera_address for r in wallet.records})
    ]


def interleaved_wallet(tmp_path):
    """Three cameras ingested in shuffled order, with their stored segments.

    Camera A wraps its seq and is revisited one lap later, camera B sits
    within merge range of A and has two packets with one seq at one time,
    camera C is far away. One object is tampered, one is not stored and
    one segment's successor is not held.
    """
    cameras = [
        (b"\xca" + bytes(5), Coordinates(50.0, 0.0), [(t * 10.0, (250 + t) % 256) for t in range(12)]
         + [(2560.0 + t * 10.0, (250 + t) % 256) for t in range(4)]),
        (b"\xcb" + bytes(5), Coordinates(50.0001, 0.0),
         [(5.0, 7), (15.0, 8), (15.0, 8), (25.0, 9), (200.0, 10), (215.0, 11)]),
        (b"\xcc" + bytes(5), Coordinates(51.0, 0.0),
         [(t * 10.0 + 3.0, t) for t in range(8) if t != 5]),
    ]
    records, objects = [], {}
    for address, location, timeline in cameras:
        previous = ZERO_HASH_PREFIX
        for t, seq in timeline:
            packet = KeyPacket(generate_key(), seq, 10, generate_video_id(), previous)
            record = WalletRecord(t, address, make_descriptor(name="cam", location=location), packet)
            container = encrypt_segment(f"segment {t} {seq}".encode(), packet.key)
            previous = hash_prefix(container)
            objects[packet.video_id] = container
            records.append(record)
    random.Random(5).shuffle(records)
    tampered, withheld = records[3].packet.video_id, records[8].packet.video_id
    objects[tampered] = objects[tampered][:-1] + bytes([objects[tampered][-1] ^ 1])
    del objects[withheld]
    for video_id, container in objects.items():
        (tmp_path / ObjectKey(video_id).path).write_bytes(container)
    wallet = Wallet()
    for record in records:
        wallet.ingest(record)
    export_wallet(wallet, None, tmp_path / "wallet.txt")
    return import_wallet(tmp_path / "wallet.txt")


def one_camera_wallet():
    """One camera's 700 packets over almost three seq laps, ingested shuffled.

    Receipt gaps vary around the reconnect interval, so some segments have
    no successor in time; every 50th packet has a twin with its seq and
    receipt time, so successors tie.
    """
    rng = random.Random(11)
    descriptor = make_descriptor(name="cam", location=Coordinates(50.0, 0.0))
    records, t = [], 0.0
    for i in range(700):
        t += rng.choice((8.0, 10.0, 10.0, 19.0, 25.0))
        for _ in range(2 if i % 50 == 0 else 1):
            packet = KeyPacket(generate_key(), i % 256, 10, generate_video_id(), ZERO_HASH_PREFIX)
            records.append(WalletRecord(t, b"\xcd" + bytes(5), descriptor, packet))
    rng.shuffle(records)
    wallet = Wallet()
    for record in records:
        wallet.ingest(record)
    return wallet


class TestCameraListing:
    def test_successor_of_matches_scan(self, tmp_path):
        for wallet in (interleaved_wallet(tmp_path), one_camera_wallet()):
            paired = [wallet.successor_of(r) for r in wallet.records]
            expected = [brute_successor(wallet, r) for r in wallet.records]
            assert all(a is b for a, b in zip(paired, expected))
            assert sum(s is not None for s in paired) > len(paired) // 2

    def test_group_sessions_matches_scan(self, tmp_path):
        wallet = interleaved_wallet(tmp_path)
        rule = GapRule()
        expected = []
        for address, records in brute_camera_records(wallet, lambda r: (r.received_at, r.packet.seq)):
            runs = [[records[0]]]
            for record in records[1:]:
                gap = record.received_at - runs[-1][-1].received_at
                if gap > rule.threshold(runs[-1][-1].packet.reconnect_interval_s):
                    runs.append([])
                runs[-1].append(record)
            expected += [(run[0].received_at, address, run) for run in runs]
        expected.sort(key=lambda s: (s[0], s[1]))
        sessions = group_sessions(wallet)
        assert [(s.camera_address, s.records) for s in sessions] == [(a, run) for _, a, run in expected]
        near, far = b"\xca" + bytes(5), b"\xcc" + bytes(5)
        assert {s.camera_address: s.group_id for s in sessions} == {
            near: near.hex(), b"\xcb" + bytes(5): near.hex(), far: far.hex()
        }

    def test_verify_chain_matches_scan(self, tmp_path, capsys):
        wallet = interleaved_wallet(tmp_path)
        items, labels, unverified = [], [], []
        for _, records in brute_camera_records(wallet, lambda r: r.received_at):
            for record in records:
                path = tmp_path / ObjectKey(record.packet.video_id).path
                if not path.exists():
                    continue
                successor = brute_successor(wallet, record)
                if successor is None:
                    unverified.append(record.packet.video_id)
                    continue
                items.append((path.read_bytes(), successor.packet))
                labels.append(record.packet.video_id)
        report = verify_chain(items)
        expected = [f"{v.hex()}: {s.value}" for v, s in zip(labels, report.statuses)]
        expected += [f"{v.hex()}: unverified (no successor packet held)" for v in unverified]
        assert cli.main(["verify-chain", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[: len(expected)] == expected
        assert {ChainStatus.OK, ChainStatus.MISMATCH} <= set(report.statuses)
        assert unverified


class TestLoneChainStart:
    """A chain start held with no successor: nothing held vouches for its file."""

    def test_verify_chain_and_fetch_both_say_unverified(self, tmp_path, capsys):
        descriptor = make_descriptor(url_template=f"file://{tmp_path}/{{id}}.mp4")
        packet = KeyPacket(generate_key(), 0, 60, generate_video_id(), ZERO_HASH_PREFIX)
        wallet = Wallet()
        wallet.ingest(WalletRecord(0.0, b"\xca" + bytes(5), descriptor, packet))
        (tmp_path / ObjectKey(packet.video_id).path).write_bytes(
            encrypt_segment(b"footage", packet.key)
        )
        export_wallet(wallet, None, tmp_path / "wallet.txt")
        video_id = packet.video_id.hex()

        assert cli.main(["verify-chain", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{video_id}: unverified (no successor packet held)", "all ok"
        ]
        out = tmp_path / "plain.bin"
        argv = ["client", "fetch", video_id, "--wallet", str(tmp_path / "wallet.txt")]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"fetched {video_id}: 7 bytes, chain unverified\n"
        assert out.read_bytes() == b"footage"


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


class CountingRadio:
    """A listener's peer that serves fixed characteristics and counts reads."""

    def __init__(self, values):
        self.values = values
        self.reads = 0
        self.deliver = None

    def on_advertisement(self, callback):
        self.deliver = callback

    def read_characteristic(self, address, suffix):
        self.reads += 1
        if suffix not in self.values:
            raise NoSuchCharacteristicError(f"characteristic {suffix:#06x} not served")
        return self.values[suffix]


class TestListenerBehaviour:
    def test_repeated_advert_is_skipped_before_decoding(self, monkeypatch):
        decoded = []
        decode = client_module.decode_advertisement
        monkeypatch.setattr(client_module, "decode_advertisement",
                            lambda data: decoded.append(data) or decode(data))
        values = {which: encode_characteristic(make_descriptor(), which) for which in DESCRIPTOR_CHARS}
        radio = CountingRadio(values)
        wallet = Wallet()
        Listener(wallet, radio, SimClock(0.0))
        camera, other = b"\xca" + bytes(5), b"\xcb" + bytes(5)
        beacon = encode_advertisement(Beacon(bytes(8), 1))

        def hear(sender, payload):
            radio.deliver(sender, payload, 0.0)
            return radio.reads, len(decoded)

        assert hear(camera, beacon) == (5, 1)  # descriptor, then a key packet not served
        values[CHAR_KEY_PACKET] = encode_key_packet(make_record().packet)
        assert hear(camera, beacon) == (6, 2)  # a failed beacon is tried again
        assert hear(camera, beacon) == (6, 2)  # a handled one: no read, no decode
        # the same seq under another camera id: decoded, then dropped by seq
        assert hear(camera, encode_advertisement(Beacon(b"\x01" * 8, 1))) == (6, 3)
        assert hear(camera, encode_advertisement(Beacon(bytes(8), 2))) == (7, 4)  # new seq
        assert hear(camera, beacon) == (8, 5)  # not the last beacon handled any more
        assert hear(other, beacon) == (13, 6)  # the cache is per sender
        token = ChunkToken(video_id=bytes(8), chunk_index=0, token=bytes(range(16)))
        assert hear(camera, encode_advertisement(token)) == (13, 7)
        assert hear(camera, encode_advertisement(token)) == (13, 7)
        assert hear(camera, beacon) == (13, 7)  # beacons and tokens are cached apart
        assert len(wallet.records) == 2 and len(wallet.token_receipts()) == 1

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

    @pytest.mark.parametrize("suffix, value", [
        (CHAR_NAME, b"x" * 65),
        (CHAR_NAME, b""),
        (CHAR_LOCATION, b"\x01" + b"x" * 257),
        (CHAR_URL_FORMAT, b"http://[{id}.mp4"),
        (CHAR_URL_FORMAT, b"https://x.example/" + b"a" * 70000 + b"/{id}.mp4"),
        (CHAR_NAME, None),  # not served at all
    ], ids=["long-name", "empty-name", "long-location", "bad-url", "huge-url", "name-not-served"])
    def test_hostile_camera_does_not_stop_listener(self, tmp_path, suffix, value):
        clock = SimClock(0.0)
        transport = SimTransport(clock=clock)
        wallet = Wallet(tmp_path / "wallet.txt")
        Listener(wallet, transport.join("listener"), clock)

        def camera(values):
            peer = transport.join("camera")

            def serve(which):
                if values.get(which) is None:
                    raise NoSuchCharacteristicError(f"characteristic {which:#06x} not served")
                return values[which]

            peer.serve_characteristics(serve)
            return peer

        packet = make_record().packet
        good = {which: encode_characteristic(make_descriptor(), which) for which in DESCRIPTOR_CHARS}
        good[CHAR_KEY_PACKET] = encode_key_packet(packet)
        hostile = camera({**good, suffix: value})
        hostile.advertise(encode_advertisement(Beacon(bytes(8), 1)))
        assert wallet.records == []
        clock.advance_to(1.0)
        camera(good).advertise(encode_advertisement(Beacon(bytes(8), 1)))
        assert [r.packet for r in wallet.records] == [packet]
        wallet.close()
