import pytest

from octv.clocks import SimClock
from octv.errors import NoSuchCharacteristicError, ProtocolError, UnreachableError
from octv.transport import RangeModel, SimTransport, UdpBusPeer, loopback_transport


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
        assert len(transport.log) == 1 and not transport.log[0].delivered

    def test_total_loss_never_delivers(self):
        transport, camera = self.make(radius=10, loss=1.0)
        received, cb = collector()
        listener = transport.join("listener", position=(1.0, 0.0))
        listener.on_advertisement(cb)
        for _ in range(50):
            camera.advertise(b"x")
        assert received == []

    def test_oversized_payload_rejected(self):
        transport, camera = self.make()
        with pytest.raises(ProtocolError):
            camera.advertise(bytes(32))


class TestLoopback:
    def test_reaches_all_scanners(self):
        transport = loopback_transport(SimClock(0.0))
        sender = transport.join("camera")
        boxes = []
        for _ in range(3):
            received, cb = collector()
            transport.join("listener").on_advertisement(cb)
            boxes.append(received)
        sender.advertise(b"payload")
        assert all(len(box) == 1 for box in boxes)

    def test_fifo_per_sender(self):
        transport = loopback_transport(SimClock(0.0))
        sender = transport.join("camera")
        received, cb = collector()
        transport.join("listener").on_advertisement(cb)
        for i in range(20):
            sender.advertise(bytes([i]))
        assert [payload[0] for _, payload, _ in received] == list(range(20))

    def test_isolated_instances_do_not_cross_deliver(self):
        t1 = loopback_transport(SimClock(0.0))
        t2 = loopback_transport(SimClock(0.0))
        sender = t1.join("camera")
        received, cb = collector()
        t2.join("listener").on_advertisement(cb)
        sender.advertise(b"x")
        assert received == []


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
        transport = loopback_transport(SimClock(1.5))
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
