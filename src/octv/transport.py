"""Broadcast transport: advertisements plus a connect-and-read surface.

Two backends share one duck-typed peer surface:

* :class:`SimTransport` — in-process broker with disc propagation, per
  receiver loss draws and a totally ordered delivery log of what reached
  a radio: adverts to peers in range (delivered or lost) and reads. Loss
  draws are keyed by (seed, sender, receiver, emission index) so
  enlarging a radius never flips a previously delivered advertisement.
  Listeners are indexed by grid cell, so an advert only tests the peers
  in the cells its disc overlaps; a listener that moves changes cell in
  place, without a rebuild. A sender with an unbounded radius reaches
  every listener without the grid. Peers are numbered in join order.
* :class:`UdpBusPeer` — local datagram sockets plus a
  registry directory, for multi-process demos. Semantics match the
  in-process loopback mode (infinite radius, zero loss).
"""

import bisect
import hashlib
import math
import os
import socket
import struct
import time
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter

from .clocks import RealClock
from .errors import NoSuchCharacteristicError, ProtocolError, UnreachableError
from .protocol import MAX_ADVERT_LEN

_ADDRESS = struct.Struct(">HI")  # a peer's 6-byte radio address
ADDRESS_LEN = _ADDRESS.size
# the hash inputs of a loss draw: the pair's seed, then the emission index
_LOSS_SEED = struct.Struct(">q")
_EMISSION = struct.Struct(">Q")
_DRAW = struct.Struct(">Q")  # a loss draw's bits: the digest's first 8 bytes

_ORDER = attrgetter("_order")


@dataclass(frozen=True)
class RangeModel:
    """Disc propagation: delivery within ``radius_m``, else nothing."""

    radius_m: float
    loss_probability: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.radius_m > 0:  # NaN too
            raise ValueError(f"radius_m must be > 0, got {self.radius_m}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0,1], got {self.loss_probability}")


@dataclass(slots=True)
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


def _loss_prefix(seed: int, sender: bytes, receiver: bytes):
    """SHA-256 fed one pair's part of every loss draw; draws copy it."""
    return hashlib.sha256(_LOSS_SEED.pack(seed) + sender + receiver)


def _draw(prefix, emission: bytes) -> float:
    """Uniform draw in [0,1) from a pair's prefix and a packed emission index."""
    h = prefix.copy()
    h.update(emission)
    return _DRAW.unpack_from(h.digest())[0] / 2**64


def _loss_draw(seed: int, sender: bytes, receiver: bytes, emission_index: int) -> float:
    """Deterministic uniform draw in [0,1) for one delivery attempt."""
    return _draw(_loss_prefix(seed, sender, receiver), _EMISSION.pack(emission_index))


def _check_advert_len(payload: bytes) -> None:
    if len(payload) > MAX_ADVERT_LEN:
        raise ProtocolError(f"advertisement payload {len(payload)} bytes exceeds {MAX_ADVERT_LEN}")


def grid_cell(position, width: float) -> tuple[int, int]:
    """Key of the square grid cell of side ``width`` holding ``position``."""
    return (math.floor(position[0] / width), math.floor(position[1] / width))


def disc_cells(center, radius: float, width: float) -> list[tuple[int, int]]:
    """Keys of the grid cells that a disc's bounding box overlaps.

    The box is widened by a hair: rounding is monotone, so every position
    that passes an exact ``hypot(...) <= radius`` test against ``center``
    has its :func:`grid_cell` among these.
    """
    reach = radius * (1 + 1e-9)
    x_lo, y_lo = grid_cell((center[0] - reach, center[1] - reach), width)
    x_hi, y_hi = grid_cell((center[0] + reach, center[1] + reach), width)
    return [(i, j) for i in range(x_lo, x_hi + 1) for j in range(y_lo, y_hi + 1)]


class SimPeer:
    """Handle returned by :meth:`SimTransport.join`."""

    def __init__(self, transport: "SimTransport", address: bytes, kind: str,
                 position, range_model: RangeModel | None):
        self.address = address
        self.kind = kind
        self._position = position
        self.range_model = range_model
        self._transport = transport
        self._scan_cb = None
        self._characteristics = None
        self._emissions = 0
        self._loss_prefixes: dict[bytes, object] = {}  # receiver -> _loss_prefix, made at first draw
        self._order = len(transport._peers)  # join order: delivery order of one advert
        self._cell = None  # grid cell key while indexed as a positioned listener
        self._disc = None  # as a sender: the grid's cell lists that its disc overlaps
        self._reach: list[SimPeer] = []  # as a sender: who its last advert reached,
        self._reach_at = -1  # kept while the broker's ``_changes`` equals this

    def set_position(self, position) -> None:
        """Move the peer; the broker's grid and kept reaches must hear of it, so only this may."""
        transport = self._transport
        transport._changes += 1
        old = self._position
        self._position = position
        self._disc = None  # a sender's disc moves with it
        cells = transport._cells
        if cells is None or self._scan_cb is None:
            return
        if old is None or position is None:
            transport._cells = None
            return
        key = grid_cell(position, transport._cell_m)
        if key != self._cell:
            cells[self._cell].remove(self)
            bisect.insort(cells.setdefault(key, []), self, key=_ORDER)
            self._cell = key

    def on_advertisement(self, callback) -> None:
        """Register scan callback(sender_address, payload, t)."""
        self._scan_cb = callback
        self._transport._cells = None
        self._transport._changes += 1

    def serve_characteristics(self, resolver) -> None:
        """Register resolver(suffix) -> bytes for incoming reads."""
        self._characteristics = resolver

    def advertise(self, payload: bytes) -> None:
        self._transport._advertise(self, payload)

    def read_characteristic(self, target_address: bytes, suffix: int) -> bytes:
        return self._transport._read(self, target_address, suffix)

    def pump(self, timeout: float = 0.0) -> None:
        """Sleep the broker's clock for ``timeout``: it delivers synchronously."""
        self._transport.clock.sleep(timeout)


class SimTransport:
    """In-process event broker with optional spatial semantics. A broker and its
    peers belong to one thread: nothing in them takes a lock."""

    def __init__(self, clock=None, seed: int = 0):
        self.clock = clock if clock is not None else RealClock()
        self.seed = seed
        self._log: list[tuple] = []  # delivery records as tuples in TransportRecord's field order
        self._peers: list[SimPeer] = []
        self._by_address: dict[bytes, SimPeer] = {}
        # peer moves and callback registrations so far: they change who a
        # sender reaches, so its kept reach is stale once this changes
        self._changes = 0
        # Uniform grid of the listening peers: cell key -> positioned peers
        # in join order, plus the unplaced ones. A cell is as wide as the
        # largest radius joined, so a disc overlaps few cells. A move within
        # the grid changes cell in place; anything else that alters it
        # (a callback, a move to or from no position, a wider radius)
        # drops it for a rebuild at the next advert.
        self._cell_m = 0.0
        self._cells: dict[tuple[int, int], list[SimPeer]] | None = None
        self._unplaced: list[SimPeer] = []

    @property
    def log(self) -> list[TransportRecord]:
        """The delivery log in order, built afresh on each read: O(n) in its length."""
        return list(starmap(TransportRecord, self._log))

    def join(self, kind: str, position=None, range_model: RangeModel | None = None) -> SimPeer:
        address = _ADDRESS.pack(0x0200, len(self._peers) + 1)
        peer = SimPeer(self, address, kind, position, range_model)
        self._peers.append(peer)
        self._by_address[address] = peer
        # an unbounded sender reaches everyone without the grid
        if range_model is not None and self._cell_m < range_model.radius_m < math.inf:
            self._cell_m = range_model.radius_m
            self._cells = None
        return peer

    def _in_range(self, sender: SimPeer, receiver: SimPeer) -> bool:
        if sender.range_model is None:
            return True
        if sender._position is None or receiver._position is None:
            return True
        (sx, sy), (rx, ry) = sender._position, receiver._position
        return math.hypot(sx - rx, sy - ry) <= sender.range_model.radius_m

    def _advertise(self, sender: SimPeer, payload: bytes) -> None:
        _check_advert_len(payload)
        emission_index = sender._emissions
        sender._emissions += 1
        if sender._reach_at != self._changes:  # a move or registration since its last advert
            sender._reach, sender._reach_at = self._reached(sender), self._changes
        reached = sender._reach
        if not reached:
            return
        t = self.clock.now()
        address, model, log = sender.address, sender.range_model, self._log
        loss = 0.0 if model is None else model.loss_probability
        if loss > 0.0:
            seed = self.seed ^ model.rng_seed
            emission = _EMISSION.pack(emission_index)
            prefixes = sender._loss_prefixes
        for receiver in reached:
            to = receiver.address
            delivered = True
            if loss > 0.0:  # a lossless sender draws nothing
                prefix = prefixes.get(to)
                if prefix is None:
                    prefix = prefixes[to] = _loss_prefix(seed, address, to)
                delivered = _draw(prefix, emission) >= loss
            log.append(("adv", t, address, to, payload, delivered, None))
            if delivered:
                receiver._scan_cb(address, payload, t)

    def _reached(self, sender: SimPeer) -> list[SimPeer]:
        """Listening peers in range of ``sender``, in join order.

        Only these get a log line for the advert. A sender with no model,
        no position or an unbounded radius reaches every listening peer.
        Otherwise an unpositioned peer is always in range, and the
        positioned peers tested are those in the cells its disc overlaps,
        and ``hypot`` only for a peer inside the disc's bounding box: it is
        never below ``max(|dx|, |dy|)``, so the box rejects no peer in range.
        """
        model = sender.range_model
        if model is None or sender._position is None or model.radius_m == math.inf:
            return [p for p in self._peers if p is not sender and p._scan_cb is not None]
        radius = model.radius_m
        if self._cells is None:
            self._index()
        if sender._disc is None:
            cells = self._cells
            sender._disc = [cells.setdefault(key, [])
                            for key in disc_cells(sender._position, radius, self._cell_m)]
        reached = [p for p in self._unplaced if p is not sender] if self._unplaced else []
        sx, sy = sender._position
        hypot = math.hypot
        for cell in sender._disc:
            for p in cell:
                rx, ry = p._position
                dx, dy = sx - rx, sy - ry
                if (-radius <= dx <= radius and -radius <= dy <= radius
                        and hypot(dx, dy) <= radius and p is not sender):
                    reached.append(p)
        if len(reached) > 1:
            reached.sort(key=_ORDER)
        return reached

    def _index(self) -> None:
        cells: dict[tuple[int, int], list[SimPeer]] = {}
        unplaced = []
        for peer in self._peers:
            peer._disc = None  # it holds lists of the grid being replaced
            if peer._scan_cb is None:
                continue
            if peer._position is None:
                unplaced.append(peer)
            else:
                peer._cell = grid_cell(peer._position, self._cell_m)
                cells.setdefault(peer._cell, []).append(peer)
        self._cells, self._unplaced = cells, unplaced

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
            self._log.append(("read", t, reader.address, target_address, b"", False, suffix))
            raise
        self._log.append(("read", t, reader.address, target_address, value, True, suffix))
        return value

    def export_log(self, path) -> None:
        """Write the delivery log, one record per line, building one record at a time."""
        with open(path, "w", encoding="ascii") as fh:
            for record in starmap(TransportRecord, self._log):
                fh.write(record.to_line() + "\n")


# --- UDP bus backend -------------------------------------------------------
#
# Each frame on the wire is a kind byte and a fixed layout; an advert's
# payload and a reply's value follow it. Replies echo the query id so a read
# issued from inside an advert callback cannot be answered with another
# read's value.

_ADVERT_FRAME = struct.Struct(f">c{ADDRESS_LEN}s")  # b"A", sender address
_QUERY_FRAME = struct.Struct(f">c{ADDRESS_LEN}sHH")  # b"Q", reader address, query id, suffix
_VALUE_FRAME = struct.Struct(">cHB")  # b"V", query id, status
_ADVERT, _QUERY, _VALUE = b"A", b"Q", b"V"
_SERVED, _NOT_SERVED = 0, 1  # a reply's status

# A change made in the same timestamp tick as the last one leaves the bus
# directory's mtime as it was, so a registry read within this long of that
# mtime is not trusted (git's "racy clean" rule; 2 s is FAT's tick).
_RACY_NS = 2_000_000_000


class UdpBusPeer:
    """Peer on a loopback datagram bus registered via a shared directory."""

    def __init__(self, bus_dir, kind: str, clock=None):
        self.bus_dir = str(bus_dir)
        self.kind = kind
        self.address = os.urandom(ADDRESS_LEN)
        self.clock = clock if clock is not None else RealClock()
        self._scan_cb = None
        self._characteristics = None
        self._replies: dict[int, tuple[int, bytes]] = {}  # query id -> (status, value)
        self._advert_queue: list[tuple[bytes, bytes]] = []
        self._dispatching = False
        self._next_query_id = 0
        self._peers: dict[bytes, int] = {}
        self._peers_mtime_ns = None  # bus directory mtime when ``_peers`` was read
        self._peers_read_ns = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        os.makedirs(self.bus_dir, exist_ok=True)
        self._registry_path = os.path.join(self.bus_dir, f"{self.address.hex()}.peer")
        # renamed into place whole, so a peer never lists it before its port is written
        staging = os.path.join(self.bus_dir, f"{self.address.hex()}.tmp")
        with open(staging, "w", encoding="ascii") as fh:
            fh.write(f"{self.port} {self.kind}\n")
        os.replace(staging, self._registry_path)

    def _registry(self, refresh: bool = False) -> dict[bytes, int]:
        """Other peers' ports, re-read only when the bus directory has changed."""
        read_ns = time.time_ns()
        mtime_ns = os.stat(self.bus_dir).st_mtime_ns
        if (refresh or mtime_ns != self._peers_mtime_ns
                or mtime_ns > self._peers_read_ns - _RACY_NS):
            self._peers = self._read_registry()
            self._peers_mtime_ns, self._peers_read_ns = mtime_ns, read_ns
        return self._peers

    def _read_registry(self) -> dict[bytes, int]:
        """The peers listed now. A ``.peer`` file is renamed into place whole and named
        by its peer's address, so its port never changes: only a name not known yet is
        opened, and a name that has gone is dropped."""
        peers = {}
        for name in sorted(os.listdir(self.bus_dir)):
            if not name.endswith(".peer"):
                continue
            try:
                address = bytes.fromhex(name[: -len(".peer")])
            except ValueError:
                continue
            if address == self.address:
                continue
            port = self._peers.get(address)
            if port is None:
                try:
                    with open(os.path.join(self.bus_dir, name), encoding="ascii") as fh:
                        port = int(fh.read().split()[0])
                except (ValueError, OSError, IndexError):
                    continue
            peers[address] = port
        return peers

    def on_advertisement(self, callback) -> None:
        self._scan_cb = callback

    def serve_characteristics(self, resolver) -> None:
        self._characteristics = resolver

    def advertise(self, payload: bytes) -> None:
        _check_advert_len(payload)
        frame = _ADVERT_FRAME.pack(_ADVERT, self.address) + payload
        for port in self._registry().values():
            self._sock.sendto(frame, ("127.0.0.1", port))

    def read_characteristic(self, target_address: bytes, suffix: int) -> bytes:
        port = self._registry().get(target_address)
        if port is None:
            port = self._registry(refresh=True).get(target_address)
        if port is None:
            raise UnreachableError(f"no peer registered at {target_address.hex()}")
        query_id = self._next_query_id
        self._next_query_id = (self._next_query_id + 1) % 0x10000
        frame = _QUERY_FRAME.pack(_QUERY, self.address, query_id, suffix)
        self._sock.sendto(frame, ("127.0.0.1", port))
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            self._receive(timeout=0.2)
            reply = self._replies.pop(query_id, None)
            if reply is not None:
                status, value = reply
                if status == _SERVED:
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
            if frame.startswith(_ADVERT) and len(frame) >= _ADVERT_FRAME.size:
                _, sender = _ADVERT_FRAME.unpack_from(frame)
                self._advert_queue.append((sender, frame[_ADVERT_FRAME.size :]))
            elif frame.startswith(_QUERY) and len(frame) == _QUERY_FRAME.size:
                _, _, query_id, suffix = _QUERY_FRAME.unpack(frame)
                if self._characteristics is None:
                    continue
                try:
                    value = self._characteristics(suffix)
                    reply = _VALUE_FRAME.pack(_VALUE, query_id, _SERVED) + value
                except NoSuchCharacteristicError:
                    reply = _VALUE_FRAME.pack(_VALUE, query_id, _NOT_SERVED)
                self._sock.sendto(reply, source)
            elif frame.startswith(_VALUE) and len(frame) >= _VALUE_FRAME.size:
                _, query_id, status = _VALUE_FRAME.unpack_from(frame)
                self._replies[query_id] = (status, frame[_VALUE_FRAME.size :])

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
