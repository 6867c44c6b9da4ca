import math
import os
import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octv import transport as transport_module
from octv.clocks import SimClock
from octv.errors import NoSuchCharacteristicError, ProtocolError, UnreachableError
from octv.transport import RangeModel, SimTransport, UdpBusPeer


def collector():
    received = []

    def on_advert(sender, payload, t):
        received.append((sender, payload, t))

    return received, on_advert


class TestRangeDelivery:
    def make(self, radius=10.0, loss=0.0, seed=0):
        transport = SimTransport(clock=SimClock(0.0), seed=seed)
        camera = transport.join(
            "camera", position=(0.0, 0.0),
            range_model=RangeModel(radius_m=radius, loss_probability=loss),
        )
        return transport, camera

    def test_in_range_delivered(self):
        transport, camera = self.make(radius=10)
        received, cb = collector()
        listener = transport.join("listener", position=(5.0, 0.0))
        listener.on_advertisement(cb)
        camera.advertise(b"hello")
        assert len(received) == 1
        assert received[0][1] == b"hello"

    def test_out_of_range_not_delivered(self):
        transport, camera = self.make(radius=10)
        received, cb = collector()
        listener = transport.join("listener", position=(15.0, 0.0))
        listener.on_advertisement(cb)
        camera.advertise(b"hello")
        assert received == []
        assert transport.log == []  # an advert that reached no radio is not logged

    def test_total_loss_never_delivers(self):
        transport, camera = self.make(radius=10, loss=1.0)
        received, cb = collector()
        listener = transport.join("listener", position=(1.0, 0.0))
        listener.on_advertisement(cb)
        for _ in range(50):
            camera.advertise(b"x")
        assert received == []

    def test_lost_in_range_advert_is_logged(self):
        transport, camera = self.make(radius=10, loss=1.0)
        received, cb = collector()
        listener = transport.join("listener", position=(5.0, 0.0))
        listener.on_advertisement(cb)
        camera.advertise(b"lost")
        assert received == []
        [record] = transport.log
        assert (record.kind, record.receiver, record.delivered) == ("adv", listener.address, False)

    def test_oversized_payload_rejected(self):
        transport, camera = self.make()
        with pytest.raises(ProtocolError):
            camera.advertise(bytes(32))

    def test_nan_radius_refused(self):
        # a NaN radius is in range of nothing and out of range of nothing
        with pytest.raises(ValueError, match="radius_m"):
            RangeModel(radius_m=math.nan)


class TestLoopback:
    def test_reaches_all_scanners(self):
        transport = SimTransport(clock=SimClock(0.0))
        sender = transport.join("camera")
        boxes = []
        for _ in range(3):
            received, cb = collector()
            transport.join("listener").on_advertisement(cb)
            boxes.append(received)
        sender.advertise(b"payload")
        assert all(len(box) == 1 for box in boxes)

    def test_fifo_per_sender(self):
        transport = SimTransport(clock=SimClock(0.0))
        sender = transport.join("camera")
        received, cb = collector()
        transport.join("listener").on_advertisement(cb)
        for i in range(20):
            sender.advertise(bytes([i]))
        assert [payload[0] for _, payload, _ in received] == list(range(20))

    def test_isolated_instances_do_not_cross_deliver(self):
        t1 = SimTransport(clock=SimClock(0.0))
        t2 = SimTransport(clock=SimClock(0.0))
        sender = t1.join("camera")
        received, cb = collector()
        t2.join("listener").on_advertisement(cb)
        sender.advertise(b"x")
        assert received == []

    def test_pump_sleeps_the_broker_clock(self):
        clock = SimClock(10.0)
        peer = SimTransport(clock=clock).join("camera")
        peer.pump(0.25)
        assert clock.now() == 10.25
        peer.pump()
        assert clock.now() == 10.25


class TestDeterminismAndMonotonicity:
    def run_once(self, radius, seed=7, loss=0.5):
        transport = SimTransport(clock=SimClock(0.0), seed=seed)
        camera = transport.join(
            "camera", position=(0.0, 0.0),
            range_model=RangeModel(radius_m=radius, loss_probability=loss, rng_seed=3),
        )
        near = transport.join("listener", position=(4.0, 0.0))
        far = transport.join("listener", position=(12.0, 0.0))
        for peer in (near, far):
            peer.on_advertisement(lambda *a: None)
        for i in range(40):
            camera.advertise(bytes([i]))
        return [record.to_line() for record in transport.log]

    def test_identical_seed_identical_log(self):
        assert self.run_once(10.0) == self.run_once(10.0)

    def test_different_seed_differs(self):
        assert self.run_once(10.0, seed=7) != self.run_once(10.0, seed=8)

    def test_radius_monotonicity(self):
        # enlarging the radius never removes a delivery from the log
        small = self.run_once(10.0)
        large = self.run_once(15.0)
        delivered_small = {line.rsplit(" ", 1)[0] for line in small if line.endswith(" 1")}
        delivered_large = {line.rsplit(" ", 1)[0] for line in large if line.endswith(" 1")}
        assert delivered_small <= delivered_large

    @pytest.mark.parametrize("args, draw", [
        ((0, bytes(6), bytes(6), 0), "0x1.d6efd8a0e6be5p-3"),
        ((7 ^ 3, bytes.fromhex("020000000001"), bytes.fromhex("020000000002"), 39),
         "0x1.37542a6526c20p-1"),
        ((-5, b"\xff" * 6, bytes.fromhex("010203040506"), 2**40 + 17), "0x1.903effe671184p-1"),
    ])
    def test_loss_draws_are_pinned(self, args, draw):
        # every delivery log ever written depends on these exact values
        assert transport_module._loss_draw(*args) == float.fromhex(draw)


# Multiples of 2.5 m lie on cell edges for every radius below, so moves
# cross edges and some distances equal a radius exactly.
COORDS = st.one_of(st.integers(-12, 12).map(lambda k: k * 2.5), st.floats(-31.0, 31.0))
POSITIONS = st.one_of(st.none(), st.tuples(COORDS, COORDS))
GRID_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("camera"), POSITIONS,
                  st.sampled_from([2.5, 5.0, 10.0, 12.5, 40.0, math.inf]),
                  st.sampled_from([0.0, 0.5])),
        st.tuples(st.just("listener"), POSITIONS, st.booleans()),
        st.tuples(st.just("listen"), st.integers(0, 63)),
        st.tuples(st.just("move"), st.integers(0, 63), POSITIONS),
        st.tuples(st.just("advert"), st.integers(0, 63)),
    ),
    max_size=60,
)


class TestGridIndex:
    """The broker only tests listeners in the cells an advert's disc
    overlaps; deliveries must match a scan of every peer."""

    def camera(self, transport, position=(0.0, 0.0), radius=10.0):
        return transport.join("camera", position=position, range_model=RangeModel(radius_m=radius))

    def listener(self, transport, position, heard, name=None):
        peer = transport.join("listener", position=position)
        peer.on_advertisement(lambda sender, payload, t: heard.append(peer.address if name is None else name))
        return peer

    def test_receiver_exactly_at_radius_across_cell_edge(self):
        transport = SimTransport(clock=SimClock(0.0))
        camera = self.camera(transport, position=(5.0, 5.0), radius=10.0)  # cells are 10 m wide
        heard = []
        for name, position in [("east", (15.0, 5.0)), ("west", (-5.0, 5.0)),
                               ("north", (5.0, 15.0)), ("south", (5.0, -5.0)),
                               ("corner", (5.0 + 6.0, 5.0 + 8.0)), ("past", (15.0 + 1e-9, 5.0))]:
            self.listener(transport, position, heard, name)
        camera.advertise(b"edge")
        assert heard == ["east", "west", "north", "south", "corner"]

    def test_unpositioned_peer_hears_positioned_sender(self):
        transport = SimTransport(clock=SimClock(0.0))
        camera = self.camera(transport, radius=5.0)
        heard = []
        self.listener(transport, (500.0, 500.0), heard, "far")
        self.listener(transport, None, heard, "nowhere")
        camera.advertise(b"x")
        assert heard == ["nowhere"]

    def test_late_listener_and_moving_peer(self):
        transport = SimTransport(clock=SimClock(0.0))
        camera = self.camera(transport, radius=10.0)
        heard = []
        late = transport.join("listener", position=(3.0, 0.0))
        mover = self.listener(transport, (500.0, 0.0), heard, "mover")
        camera.advertise(b"1")  # indexes the grid before ``late`` listens
        late.on_advertisement(lambda *args: heard.append("late"))
        camera.advertise(b"2")
        mover.set_position((0.0, -9.0))
        camera.advertise(b"3")
        late.set_position((-40.0, 0.0))
        camera.advertise(b"4")
        assert heard == ["late", "late", "mover", "mover"]

    def test_later_camera_with_larger_radius_reaches_its_disc(self):
        transport = SimTransport(clock=SimClock(0.0))
        small = self.camera(transport, radius=5.0)
        heard = []
        positions = [(50.0, 0.0), (0.0, -50.0), (-30.0, 40.0), (35.0, 35.0), (51.0, 0.0)]
        for i, position in enumerate(positions):
            self.listener(transport, position, heard, i)
        small.advertise(b"s")  # indexes the grid in 5 m cells
        assert heard == []
        large = self.camera(transport, radius=50.0)
        large.advertise(b"l")
        assert heard == [0, 1, 2, 3]

    def test_unbounded_radius_reaches_every_listener(self):
        transport = SimTransport(clock=SimClock(0.0))
        unbounded = self.camera(transport, radius=float("inf"))
        small = self.camera(transport, radius=5.0)
        heard = []
        self.listener(transport, (1e6, -1e6), heard, "far")
        self.listener(transport, (1.0, 0.0), heard, "near")
        unbounded.advertise(b"u")
        small.advertise(b"s")
        assert heard == ["far", "near", "near"]

    def test_unbounded_radius_leaves_cells_narrow(self):
        # an unbounded sender skips the grid, so only finite radii size its cells
        transport = SimTransport(clock=SimClock(0.0))
        unbounded = self.camera(transport, radius=math.inf)
        small = self.camera(transport, radius=5.0)
        heard = []
        for i in range(100):
            self.listener(transport, (50.0 * i, 0.0), heard, i)
        unbounded.advertise(b"u")
        small.advertise(b"s")
        assert heard == [*range(100), 0]
        assert sum(map(len, small._disc)) <= 3

    def test_callbacks_fire_in_join_order(self):
        transport = SimTransport(clock=SimClock(0.0), seed=5)
        camera = transport.join(
            "camera", position=(0.0, 0.0),
            range_model=RangeModel(radius_m=20.0, loss_probability=0.3, rng_seed=9),
        )
        heard = []
        positions = [(19.0, 0.0), (-19.0, -1.0), None, (0.0, 19.0), (1.0, 1.0), (-5.0, 18.0)]
        peers = [self.listener(transport, p, heard) for p in positions]
        for i in range(30):
            camera.advertise(bytes([i]))
        order = {peer.address: n for n, peer in enumerate(peers)}
        per_advert = [
            [order[r.receiver] for r in transport.log if r.payload == bytes([i])] for i in range(30)
        ]
        assert all(receivers == list(range(len(peers))) for receivers in per_advert)
        delivered = [r.receiver for r in transport.log if r.delivered]
        assert heard == delivered
        assert len(delivered) < len(transport.log)  # some adverts were lost

    @settings(max_examples=200, deadline=None)
    @given(ops=GRID_OPS)
    @example(ops=[("camera", (0.0, 0.0), 5.0, 0.0), ("listener", (30.0, 0.0), True),
                  ("advert", 0), ("move", 0, (30.0, 2.5)), ("advert", 0)])
    def test_adverts_match_brute_force_scan(self, ops):
        # joins, moves across cell edges and to or from no position, late
        # registrations and adverts, in any order
        seed = 11
        transport = SimTransport(clock=SimClock(0.0), seed=seed)
        peers, cameras, heard = [], [], []
        position, listening, emissions = {}, set(), {}

        def join(kind, at, model=None):
            peer = transport.join(kind, position=at, range_model=model)
            peers.append(peer)
            position[peer.address] = at
            return peer

        def listen(peer):
            peer.on_advertisement(lambda sender, payload, t: heard.append(peer.address))
            listening.add(peer.address)

        def advertise(sender):
            emission = emissions.get(sender.address, 0)
            emissions[sender.address] = emission + 1
            model = sender.range_model
            expected = []
            for peer in peers:  # every peer, in join order
                if peer is sender or peer.address not in listening:
                    continue
                a, b = position[sender.address], position[peer.address]
                if a is not None and b is not None and math.hypot(
                        a[0] - b[0], a[1] - b[1]) > model.radius_m:
                    continue
                draw = transport_module._loss_draw(
                    seed ^ model.rng_seed, sender.address, peer.address, emission)
                expected.append((peer.address, draw >= model.loss_probability))
            logged, heard_before = len(transport.log), len(heard)
            sender.advertise(b"x")
            assert [(r.receiver, r.delivered) for r in transport.log[logged:]] == expected
            assert heard[heard_before:] == [address for address, ok in expected if ok]

        for kind, *args in ops:
            if kind == "camera":
                at, radius, loss = args
                model = RangeModel(radius_m=radius, loss_probability=loss, rng_seed=len(peers))
                cameras.append(join("camera", at, model))
            elif kind == "listener":
                peer = join("listener", args[0])
                if args[1]:
                    listen(peer)
            elif kind == "listen" and peers:
                listen(peers[args[0] % len(peers)])
            elif kind == "move" and peers:
                peer = peers[args[0] % len(peers)]
                peer.set_position(args[1])
                position[peer.address] = args[1]
            elif kind == "advert" and cameras:
                advertise(cameras[args[0] % len(cameras)])


class TestCharacteristicReads:
    def make_camera(self, radius=10.0):
        transport = SimTransport(clock=SimClock(0.0), seed=0)
        camera = transport.join(
            "camera", position=(0.0, 0.0), range_model=RangeModel(radius_m=radius)
        )

        def resolver(suffix):
            if suffix == 0x0011:
                return bytes(64)
            if suffix == 0x0002:
                return b"\x00"
            raise NoSuchCharacteristicError(f"{suffix:#06x}")

        camera.serve_characteristics(resolver)
        return transport, camera

    def test_read_key_packet_is_64_bytes(self):
        transport, camera = self.make_camera()
        reader = transport.join("listener", position=(5.0, 0.0))
        assert len(reader.read_characteristic(camera.address, 0x0011)) == 64

    def test_read_mode_byte(self):
        transport, camera = self.make_camera()
        reader = transport.join("listener", position=(5.0, 0.0))
        assert reader.read_characteristic(camera.address, 0x0002) in (b"\x00", b"\x01", b"\x02")

    def test_out_of_range_read_unreachable(self):
        transport, camera = self.make_camera(radius=10.0)
        reader = transport.join("listener", position=(20.0, 0.0))
        with pytest.raises(UnreachableError):
            reader.read_characteristic(camera.address, 0x0011)

    def test_unknown_uuid(self):
        transport, camera = self.make_camera()
        reader = transport.join("listener", position=(5.0, 0.0))
        with pytest.raises(NoSuchCharacteristicError):
            reader.read_characteristic(camera.address, 0x7777)

    def test_unknown_peer_unreachable(self):
        transport, camera = self.make_camera()
        reader = transport.join("listener", position=(5.0, 0.0))
        with pytest.raises(UnreachableError):
            reader.read_characteristic(b"\xde\xad\xbe\xef\x00\x00", 0x0011)


class TestLogExport:
    def test_line_format(self, tmp_path):
        transport = SimTransport(clock=SimClock(1.5))
        sender = transport.join("camera")
        received, cb = collector()
        transport.join("listener").on_advertisement(cb)
        sender.advertise(b"\x01\x02")
        path = tmp_path / "delivery.log"
        transport.export_log(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        kind, t, source, dest, payload, delivered = lines[0].split(" ")
        assert kind == "ADV"
        assert float(t) == 1.5
        assert payload == "0102"
        assert delivered == "1"


class TestUdpBus:
    def test_advertise_between_processes_worth_of_peers(self, tmp_path):
        bus = tmp_path / "bus"
        camera = UdpBusPeer(bus, "camera")
        listener = UdpBusPeer(bus, "listener")
        try:
            received, cb = collector()
            listener.on_advertisement(cb)
            camera.advertise(b"over-the-wire")
            listener.pump(timeout=1.0)
            assert [payload for _, payload, _ in received] == [b"over-the-wire"]
            assert received[0][0] == camera.address
        finally:
            camera.close()
            listener.close()

    def test_read_characteristic_roundtrip(self, tmp_path):
        bus = tmp_path / "bus"
        camera = UdpBusPeer(bus, "camera")
        listener = UdpBusPeer(bus, "listener")
        try:
            camera.serve_characteristics(lambda suffix: bytes([suffix & 0xFF] * 4))

            import threading

            answering = threading.Thread(
                target=lambda: [camera.pump(timeout=0.2) for _ in range(10)], daemon=True
            )
            answering.start()
            value = listener.read_characteristic(camera.address, 0x0011)
            assert value == b"\x11\x11\x11\x11"
            answering.join()
        finally:
            camera.close()
            listener.close()

    def test_unregistered_peer_unreachable(self, tmp_path):
        listener = UdpBusPeer(tmp_path / "bus", "listener")
        try:
            with pytest.raises(UnreachableError):
                listener.read_characteristic(b"\x00" * 6, 0x0011)
        finally:
            listener.close()


class TestUdpBusFrames:
    """Each bus frame byte for byte, as a plain UDP socket registered on the bus sees it."""

    ADDRESS = bytes.fromhex("0f0e0d0c0b0a")

    @pytest.fixture
    def bus(self, tmp_path):
        bus_dir = tmp_path / "bus"
        bus_dir.mkdir()
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.bind(("127.0.0.1", 0))
        raw.settimeout(2.0)
        (bus_dir / f"{self.ADDRESS.hex()}.peer").write_text(f"{raw.getsockname()[1]} raw\n")
        peers = []

        def join(kind):
            peers.append(UdpBusPeer(bus_dir, kind))
            return peers[-1]

        yield raw, join
        for peer in peers:
            peer.close()
        raw.close()

    def test_advert_frame(self, bus):
        raw, join = bus
        camera = join("camera")
        camera.advertise(b"x")
        assert raw.recvfrom(65536)[0] == b"A" + camera.address + b"x"

    @pytest.mark.parametrize("suffix, reply", [
        (b"\x00\x11", b"V\x12\x34\x00" + b"value"),
        (b"\x77\x77", b"V\x12\x34\x01"),
    ], ids=["served", "not-served"])
    def test_query_frame_is_answered_with_a_value_frame(self, bus, suffix, reply):
        raw, join = bus
        camera = join("camera")

        def resolver(suffix):
            if suffix == 0x0011:
                return b"value"
            raise NoSuchCharacteristicError(f"{suffix:#06x}")

        camera.serve_characteristics(resolver)
        raw.sendto(b"Q" + self.ADDRESS + b"\x12\x34" + suffix, ("127.0.0.1", camera.port))
        camera.pump(timeout=1.0)
        assert raw.recvfrom(65536)[0] == reply

    def test_read_sends_a_query_frame_and_returns_the_value_frame(self, bus):
        raw, join = bus
        listener = join("listener")
        with ThreadPoolExecutor(max_workers=1) as pool:
            read = pool.submit(listener.read_characteristic, self.ADDRESS, 0x0011)
            frame, source = raw.recvfrom(65536)
            query_id = frame[7:9]
            assert frame == b"Q" + listener.address + query_id + b"\x00\x11"
            raw.sendto(b"V" + query_id + b"\x00" + b"answer", source)
            assert read.result(timeout=5) == b"answer"


class TestUdpBusRegistry:
    """The registry is cached and re-read when the bus directory changes."""

    @pytest.fixture
    def bus(self, tmp_path):
        peers = []

        def join(kind="listener"):
            peers.append(UdpBusPeer(tmp_path / "bus", kind))
            return peers[-1]

        yield tmp_path / "bus", join
        for peer in peers:
            peer.close()

    @staticmethod
    def next_tick():
        # so that the next change moves the directory's mtime on a coarse clock
        time.sleep(0.05)

    def test_unchanged_directory_is_not_listed_again(self, bus, monkeypatch):
        monkeypatch.setattr(transport_module, "_RACY_NS", 0)
        path, join = bus
        camera, listener = join("camera"), join()
        self.next_tick()
        camera.advertise(b"first")
        listings = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda p: listings.append(p) or listdir(p))
        camera.advertise(b"second")
        camera.advertise(b"third")
        assert listings == []
        received, cb = collector()
        listener.on_advertisement(cb)
        listener.pump(timeout=0.5)
        assert [payload for _, payload, _ in received] == [b"first", b"second", b"third"]

    @pytest.mark.parametrize("racy_ns", [None, 0])
    def test_peer_joining_and_leaving_after_cached_advert(self, bus, monkeypatch, racy_ns):
        if racy_ns is not None:
            monkeypatch.setattr(transport_module, "_RACY_NS", racy_ns)
        path, join = bus
        camera = join("camera")
        self.next_tick()
        camera.advertise(b"before")
        self.next_tick()
        late = join()
        received, cb = collector()
        late.on_advertisement(cb)
        camera.advertise(b"joined")
        late.pump(timeout=1.0)
        assert [payload for _, payload, _ in received] == [b"joined"]
        self.next_tick()
        os.unlink(path / f"{late.address.hex()}.peer")  # leaves, socket still open
        camera.advertise(b"left")
        late.pump(timeout=0.3)
        assert [payload for _, payload, _ in received] == [b"joined"]

    def test_inside_the_racy_window_each_peer_file_is_opened_once(self, bus, monkeypatch):
        """While the mtime is too recent to trust, every advert lists the directory,
        but only a name not known yet is opened; a name that has gone is dropped."""
        monkeypatch.setattr(transport_module, "_RACY_NS", 1 << 62)  # always inside it
        path, join = bus
        camera, listener = join("camera"), join()
        opened = Counter()

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(".peer"):
                opened[os.path.basename(file)] += 1
            return open(file, *args, **kwargs)

        monkeypatch.setattr(transport_module, "open", counting_open, raising=False)
        for _ in range(5):
            camera.advertise(b"two")
        assert opened == {f"{listener.address.hex()}.peer": 1}
        late = join()
        for _ in range(5):
            camera.advertise(b"three")
        assert opened == {f"{listener.address.hex()}.peer": 1, f"{late.address.hex()}.peer": 1}
        assert camera._registry() == {listener.address: listener.port, late.address: late.port}
        late.close()
        camera.advertise(b"two again")
        assert camera._registry() == {listener.address: listener.port}
        received, cb = collector()
        listener.on_advertisement(cb)
        listener.pump(timeout=0.5)
        assert [payload for _, payload, _ in received] == (
            [b"two"] * 5 + [b"three"] * 5 + [b"two again"])

    def test_join_in_the_same_tick_is_not_missed(self, bus):
        path, join = bus
        camera = join("camera")
        camera.advertise(b"before")
        stamp = os.stat(path).st_mtime_ns
        late = join()
        # a filesystem whose timestamps are too coarse to see the join
        os.utime(path, ns=(stamp, stamp))
        received, cb = collector()
        late.on_advertisement(cb)
        camera.advertise(b"joined")
        late.pump(timeout=1.0)
        assert [payload for _, payload, _ in received] == [b"joined"]

    def test_read_refreshes_registry_on_miss(self, bus, monkeypatch):
        monkeypatch.setattr(transport_module, "_RACY_NS", 0)
        path, join = bus
        listener = join()
        old = os.stat(path).st_mtime_ns - 3_600_000_000_000
        os.utime(path, ns=(old, old))
        listener.advertise(b"cached")
        camera = join("camera")
        os.utime(path, ns=(old, old))  # the join left no trace in the mtime
        camera.serve_characteristics(lambda suffix: b"value")
        done = threading.Event()

        def answer():
            while not done.is_set():
                camera.pump(timeout=0.05)

        answering = threading.Thread(target=answer, daemon=True)
        answering.start()
        try:
            assert listener.read_characteristic(camera.address, 0x0011) == b"value"
        finally:
            done.set()
            answering.join()
