"""Broadcast transport: advertisements plus a connect-and-read surface.

Two backends share one duck-typed peer surface:

* :class:`SimTransport` — in-process broker with disc propagation, per
  receiver loss draws and a totally ordered delivery log. Loss draws are
  keyed by (seed, sender, receiver, emission index) so enlarging a radius
  never flips a previously delivered advertisement.
* :class:`UdpBusPeer` — local datagram sockets plus a
  registry directory, for multi-process demos. Semantics match the
  in-process loopback mode (infinite radius, zero loss).
"""

import hashlib
import math
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .clocks import RealClock
from .errors import NoSuchCharacteristicError, ProtocolError, UnreachableError
from .protocol import MAX_ADVERT_LEN

ADDRESS_LEN = 6


@dataclass(frozen=True)
class RangeModel:
    """Disc propagation: delivery within ``radius_m``, else nothing."""

    radius_m: float
    loss_probability: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError(f"radius_m must be > 0, got {self.radius_m}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0,1], got {self.loss_probability}")


@dataclass
class TransportRecord:
    """One line of the delivery log."""

    kind: str  # "adv" or "read"
    t: float
    sender: bytes
    receiver: bytes
    payload: bytes
    delivered: bool
    suffix: int | None = None

    def to_line(self) -> str:
        if self.kind == "adv":
            return (
                f"ADV {self.t:.6f} {self.sender.hex()} {self.receiver.hex()} "
                f"{self.payload.hex()} {int(self.delivered)}"
            )
        return (
            f"READ {self.t:.6f} {self.sender.hex()} {self.receiver.hex()} "
            f"{self.suffix:04x} {'ok' if self.delivered else 'fail'} {self.payload.hex()}"
        )


def _loss_draw(seed: int, sender: bytes, receiver: bytes, emission_index: int) -> float:
    """Deterministic uniform draw in [0,1) for one delivery attempt."""
    material = struct.pack(">q", seed) + sender + receiver + struct.pack(">Q", emission_index)
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class SimPeer:
    """Handle returned by :meth:`SimTransport.join`."""

    def __init__(self, transport: "SimTransport", address: bytes, kind: str,
                 position, range_model: RangeModel | None):
        self.address = address
        self.kind = kind
        self.position = position
        self.range_model = range_model
        self._transport = transport
        self._scan_cb = None
        self._characteristics = None
        self._emissions = 0

    def set_position(self, position) -> None:
        self.position = position

    def on_advertisement(self, callback) -> None:
        """Register scan callback(sender_address, payload, t)."""
        self._scan_cb = callback

    def serve_characteristics(self, resolver) -> None:
        """Register resolver(suffix) -> bytes for incoming reads."""
        self._characteristics = resolver

    def advertise(self, payload: bytes) -> None:
        self._transport._advertise(self, payload)

    def read_characteristic(self, target_address: bytes, suffix: int) -> bytes:
        return self._transport._read(self, target_address, suffix)

    def pump(self, timeout: float = 0.0) -> None:
        """No-op: the in-process broker delivers synchronously."""


class SimTransport:
    """In-process event broker with optional spatial semantics."""

    def __init__(self, clock=None, seed: int = 0):
        self.clock = clock if clock is not None else RealClock()
        self.seed = seed
        self.log: list[TransportRecord] = []
        self._peers: list[SimPeer] = []
        self._by_address: dict[bytes, SimPeer] = {}
        self._next_address = 1
        self._lock = threading.RLock()

    def join(self, kind: str, position=None, address: bytes | None = None,
             range_model: RangeModel | None = None) -> SimPeer:
        with self._lock:
            if address is None:
                address = struct.pack(">HI", 0x0200, self._next_address)
                self._next_address += 1
            if len(address) != ADDRESS_LEN:
                raise ValueError(f"address must be {ADDRESS_LEN} bytes")
            if address in self._by_address:
                raise ValueError(f"address {address.hex()} already joined")
            peer = SimPeer(self, address, kind, position, range_model)
            self._peers.append(peer)
            self._by_address[address] = peer
            return peer

    def _in_range(self, sender: SimPeer, receiver: SimPeer) -> bool:
        if sender.range_model is None:
            return True
        if sender.position is None or receiver.position is None:
            return True
        return _distance(sender.position, receiver.position) <= sender.range_model.radius_m

    def _advertise(self, sender: SimPeer, payload: bytes) -> None:
        if len(payload) > MAX_ADVERT_LEN:
            raise ProtocolError(
                f"advertisement payload {len(payload)} bytes exceeds {MAX_ADVERT_LEN}"
            )
        with self._lock:
            emission = sender._emissions
            sender._emissions += 1
            t = self.clock.now()
            targets = [p for p in self._peers if p is not sender and p._scan_cb is not None]
        for receiver in targets:
            delivered = self._in_range(sender, receiver)
            if delivered and sender.range_model is not None:
                model = sender.range_model
                if model.loss_probability > 0.0:
                    draw = _loss_draw(
                        self.seed ^ model.rng_seed, sender.address, receiver.address, emission
                    )
                    delivered = draw >= model.loss_probability
            self.log.append(
                TransportRecord("adv", t, sender.address, receiver.address, payload, delivered)
            )
            if delivered:
                receiver._scan_cb(sender.address, payload, t)

    def _read(self, reader: SimPeer, target_address: bytes, suffix: int) -> bytes:
        t = self.clock.now()
        target = self._by_address.get(target_address)
        if target is None or target._characteristics is None:
            raise UnreachableError(f"no peer serving at {target_address.hex()}")
        if not self._in_range(target, reader):
            raise UnreachableError(
                f"peer {target_address.hex()} out of range for characteristic read"
            )
        try:
            value = target._characteristics(suffix)
        except NoSuchCharacteristicError:
            self.log.append(TransportRecord("read", t, reader.address, target_address, b"", False, suffix))
            raise
        self.log.append(TransportRecord("read", t, reader.address, target_address, value, True, suffix))
        return value

    def export_log(self, path) -> None:
        """Write the delivery log, one record per line."""
        with open(path, "w", encoding="ascii") as fh:
            for record in self.log:
                fh.write(record.to_line() + "\n")


def loopback_transport(clock=None) -> SimTransport:
    """Transport with infinite radius and zero loss, for in-process tests."""
    return SimTransport(clock=clock)


# --- UDP bus backend -------------------------------------------------------
#
# Frames on the wire:
#   0x41 'A' | sender address (6) | advertisement payload
#   0x51 'Q' | reader address (6) | query id (2 BE) | characteristic suffix (2 BE)
#   0x56 'V' | query id (2 BE) | status (0 ok, 1 no-such-characteristic) | value
#
# Replies echo the query id so a read issued from inside an advert
# callback cannot be answered with another read's value.

_FRAME_ADV = 0x41
_FRAME_QUERY = 0x51
_FRAME_VALUE = 0x56


class UdpBusPeer:
    """Peer on a loopback datagram bus registered via a shared directory."""

    def __init__(self, bus_dir, kind: str, address: bytes | None = None, clock=None):
        self.bus_dir = str(bus_dir)
        self.kind = kind
        self.address = address if address is not None else os.urandom(ADDRESS_LEN)
        self.clock = clock if clock is not None else RealClock()
        self._scan_cb = None
        self._characteristics = None
        self._replies: dict[int, bytes] = {}
        self._advert_queue: list[tuple[bytes, bytes]] = []
        self._dispatching = False
        self._next_query_id = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        os.makedirs(self.bus_dir, exist_ok=True)
        self._registry_path = os.path.join(self.bus_dir, f"{self.address.hex()}.peer")
        with open(self._registry_path, "w", encoding="ascii") as fh:
            fh.write(f"{self.port} {self.kind}\n")

    def _registry(self) -> dict[bytes, int]:
        peers = {}
        for name in sorted(os.listdir(self.bus_dir)):
            if not name.endswith(".peer"):
                continue
            try:
                address = bytes.fromhex(name[: -len(".peer")])
                with open(os.path.join(self.bus_dir, name), encoding="ascii") as fh:
                    port = int(fh.read().split()[0])
            except (ValueError, OSError, IndexError):
                continue
            if address != self.address:
                peers[address] = port
        return peers

    def on_advertisement(self, callback) -> None:
        self._scan_cb = callback

    def serve_characteristics(self, resolver) -> None:
        self._characteristics = resolver

    def advertise(self, payload: bytes) -> None:
        if len(payload) > MAX_ADVERT_LEN:
            raise ProtocolError(
                f"advertisement payload {len(payload)} bytes exceeds {MAX_ADVERT_LEN}"
            )
        frame = bytes([_FRAME_ADV]) + self.address + payload
        for port in self._registry().values():
            self._sock.sendto(frame, ("127.0.0.1", port))

    def read_characteristic(self, target_address: bytes, suffix: int) -> bytes:
        port = self._registry().get(target_address)
        if port is None:
            raise UnreachableError(f"no peer registered at {target_address.hex()}")
        query_id = self._next_query_id
        self._next_query_id = (self._next_query_id + 1) % 0x10000
        frame = bytes([_FRAME_QUERY]) + self.address + struct.pack(">HH", query_id, suffix)
        self._sock.sendto(frame, ("127.0.0.1", port))
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            self._receive(timeout=0.2)
            reply = self._replies.pop(query_id, None)
            if reply is not None:
                status, value = reply[0], reply[1:]
                if status == 0:
                    return value
                raise NoSuchCharacteristicError(f"characteristic {suffix:#06x} not served")
        raise UnreachableError(f"peer {target_address.hex()} did not answer read")

    def _receive(self, timeout: float) -> None:
        """Pull datagrams off the socket; adverts are queued, not dispatched."""
        self._sock.settimeout(timeout if timeout > 0 else 0.0)
        while True:
            try:
                frame, source = self._sock.recvfrom(65536)
            except (socket.timeout, BlockingIOError):
                return
            self._sock.settimeout(0.0)
            if not frame:
                continue
            kind = frame[0]
            if kind == _FRAME_ADV and len(frame) >= 1 + ADDRESS_LEN:
                self._advert_queue.append((frame[1 : 1 + ADDRESS_LEN], frame[1 + ADDRESS_LEN :]))
            elif kind == _FRAME_QUERY and len(frame) == 1 + ADDRESS_LEN + 4:
                query_id, suffix = struct.unpack(">HH", frame[1 + ADDRESS_LEN :])
                if self._characteristics is None:
                    continue
                try:
                    value = self._characteristics(suffix)
                    reply = bytes([_FRAME_VALUE]) + struct.pack(">H", query_id) + b"\x00" + value
                except NoSuchCharacteristicError:
                    reply = bytes([_FRAME_VALUE]) + struct.pack(">H", query_id) + b"\x01"
                self._sock.sendto(reply, source)
            elif kind == _FRAME_VALUE and len(frame) >= 4:
                (query_id,) = struct.unpack(">H", frame[1:3])
                self._replies[query_id] = frame[3:]

    def pump(self, timeout: float = 0.0) -> None:
        """Receive pending datagrams and dispatch queued advertisements."""
        self._receive(timeout)
        if self._dispatching or self._scan_cb is None:
            return
        self._dispatching = True
        try:
            while self._advert_queue:
                sender, payload = self._advert_queue.pop(0)
                self._scan_cb(sender, payload, self.clock.now())
        finally:
            self._dispatching = False

    def close(self) -> None:
        try:
            os.unlink(self._registry_path)
        except OSError:
            pass
        self._sock.close()
