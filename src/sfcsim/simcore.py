"""Discrete-event simulation of data centers, servers, and VNF instances.

Servers and VNF instances alternate between up and down following
exponential time-to-failure / time-to-repair draws (means from the failure
model). The service function chain is the EPC stack: one instance of each
of SGW, PGW, MME, and HSS must be operational somewhere for the chain to be
complete. Management actions (create / delete / restart / no-op) come from
the RL environment.

Every server and every VNF instance owns an independent seed-derived RNG
stream, so the timing of management actions never perturbs the failure
times of unrelated entities. The streams are NumPy Generators bit-equal to
``entity_rng(seed, 1, dc, server)`` and ``entity_rng(seed, 2, instance_id)``.
Their seeds are mixed in one ``entity_words`` call per simulator, for all
servers and the first block of instance ids together (one more call per
later block); a server's Generator is built at once, an instance's when it
is created.
"""

import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .seeding import entity_words, words_rng

VNF_TYPES = ("SGW", "PGW", "MME", "HSS")
N_VNF_TYPES = 4

SERVER_FAIL = "server_fail"
SERVER_REPAIR = "server_repair"
VNF_FAIL = "vnf_fail"
VNF_REPAIR = "vnf_repair"

_STREAM_SERVER = 1
_STREAM_VNF = 2
_VNF_STREAM_BLOCK = 256  # instance ids whose seed words are mixed per call


@dataclass(frozen=True)
class Topology:
    """Static layout: data centers, servers, and per-server capacity limits."""

    n_dcs: int = 10
    servers_per_dc: int = 5
    max_vnfs_per_server: int = 5
    max_same_type_per_server: int = 2

    def __post_init__(self):
        if min(self.n_dcs, self.servers_per_dc, self.max_vnfs_per_server,
               self.max_same_type_per_server) < 1:
            raise ValueError("all topology counts must be >= 1")
        if self.max_same_type_per_server > self.max_vnfs_per_server:
            raise ValueError("per-type cap cannot exceed the per-server cap")

    @property
    def n_servers(self) -> int:
        return self.n_dcs * self.servers_per_dc


@dataclass(frozen=True)
class FailureModel:
    """Exponential failure/repair means in hours."""

    mttf_server: float = 8760.0
    mttr_server: float = 1.667
    mttf_vnf: float = 24.0
    mttr_vnf: float = 0.033

    def __post_init__(self):
        if min(self.mttf_server, self.mttr_server, self.mttf_vnf, self.mttr_vnf) <= 0:
            raise ValueError("all failure/repair means must be > 0")


@dataclass(frozen=True)
class EnergyModel:
    """Per-unit power draw of an allocated VNF."""

    cpu_watts: float = 40.0
    mem_watts: float = 30.72

    def __post_init__(self):
        if self.cpu_watts < 0 or self.mem_watts < 0:
            raise ValueError("wattages must be nonnegative")


@dataclass(slots=True)
class VnfInstance:
    # Every instance draws the same power; ``_energy_table`` relies on it.
    cpu_units: ClassVar[int] = 1
    mem_units: ClassVar[int] = 1

    instance_id: int
    vnf_type: int  # index into VNF_TYPES
    up: bool = True
    # Start of the current risk-accumulation window; pushed forward while the
    # host server is down so frozen time does not age the instance.
    age_anchor: float = 0.0
    due: float = math.inf  # failure if up, repair if down; inf if deleted or suspended
    suspended: float | None = None  # hours left to the event while the host is down
    rng: np.random.Generator = field(default=None, repr=False)


@dataclass(slots=True)
class ServerState:
    dc_id: int
    server_id: int
    up: bool = True
    vnfs: list[VnfInstance] = field(default_factory=list)
    due: float = math.inf  # pending failure if up, pending repair if down
    down_since: float | None = None
    rng: np.random.Generator = field(default=None, repr=False)


class SimEvent(NamedTuple):
    """One processed failure or repair event."""

    time: float
    seq: int
    kind: str
    dc_id: int
    server_id: int
    instance_id: int | None = None
    vnf_type: int | None = None


class ActionOutcome(NamedTuple):
    accepted: bool
    reason: str = "ok"
    instance_id: int | None = None


# Outcomes that carry no instance are the same every time, so they are shared.
_NOOP = ActionOutcome(True, "noop")
_SERVER_DOWN = ActionOutcome(False, "server_down")
_SERVER_FULL = ActionOutcome(False, "server_full")
_TYPE_CAP = ActionOutcome(False, "type_cap")
_NO_INSTANCE = ActionOutcome(False, "no_instance")


def sample_exponential(rng: np.random.Generator, mean: float) -> float:
    """Strictly positive exponential draw via inverse CDF, -mean*ln(1-u), mean > 0."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return -mean * math.log1p(-u)


def vnf_fail_risk(instance: VnfInstance, now: float, mttf_vnf: float) -> float:
    """Age-based failure-risk score 1 - exp(-age/mttf), used for targeting.

    Zero right after creation or restart, monotone in age. This score only
    decides which instance a delete/restart hits; the actual failure times
    stay exponential.
    """
    age = max(0.0, now - instance.age_anchor)
    return 1.0 - math.exp(-age / mttf_vnf)


@functools.lru_cache(maxsize=None)
def _energy_table(model: EnergyModel, n_max: int) -> tuple[float, ...]:
    """Watts drawn by n allocated instances of one DC, for n = 0..n_max.

    Entry n adds one instance's watts n times in a row, as a loop over the
    instances does; ``n * watts`` rounds differently once n >= 6.
    """
    watts = (VnfInstance.cpu_units * model.cpu_watts
             + VnfInstance.mem_units * model.mem_watts)
    table = [0.0]
    for _ in range(n_max):
        table.append(table[-1] + watts)
    return tuple(table)


# Stream tags (2, id) of the first block of instances; add (0, start) to shift
_VNF_TAGS = np.array([(_STREAM_VNF, i) for i in range(_VNF_STREAM_BLOCK)])
_VNF_TAGS.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _server_tags(n_dcs: int, servers_per_dc: int) -> np.ndarray:
    """Stream tags (1, dc, server) of every server, in (dc, server) order."""
    tags = np.array([(_STREAM_SERVER, d, s)
                     for d in range(n_dcs) for s in range(servers_per_dc)])
    tags.flags.writeable = False  # shared by every SimState of this layout
    return tags


class SimState:
    """Mutable simulation state: servers, instances, and the event queue.

    Aggregates kept up to date by the six transitions (create, delete,
    restart, VNF fail/repair, server fail/repair), so no query scans the
    instances: ``alloc_counts`` is a flat list of Python ints, the allocated
    instances, up or down, of each (dc, server, type) in that order (entry
    ``(dc * servers_per_dc + server) * N_VNF_TYPES + type``; ``vnf_counts``
    is it as an array); ``_dc_alloc`` sums it per DC (``dc_alloc`` is a
    copy); ``_up_counts[type]`` counts up instances on up servers. Writing
    ``alloc_counts`` or an ``up`` field from outside bypasses them and is
    unsupported.

    ``changes`` counts processed events and accepted creates, deletes and
    restarts, so while it holds no ``up``, ``vnfs`` or ``age_anchor`` field
    has moved (``StaticGreedyPolicy`` relies on it). An outside write to one
    of them must add 1 to it.

    Each server and instance has one pending event, at its ``due`` time: a
    failure if it is up, a repair if not. Heap entries are ``(time, seq,
    server, instance or None)``; an entry is live exactly when its time is
    its entity's ``due``, and dead ones are skipped. A deleted or suspended
    instance has ``due = inf``.
    """

    def __init__(self, topology: Topology, failure: FailureModel, seed: int = 0):
        self.topology = topology
        self.failure = failure
        self.time = 0.0
        self.seed = seed
        self.changes = 0
        self._seq = 0
        self._next_instance_id = 0
        self._heap: list[tuple] = []
        self.alloc_counts = [0] * (topology.n_servers * N_VNF_TYPES)
        self._dc_alloc = [0] * topology.n_dcs
        self._up_counts = [0] * N_VNF_TYPES
        self._energy_model, self._energy_watts = None, ()  # energy_total's table
        words = entity_words(seed, _server_tags(topology.n_dcs, topology.servers_per_dc),
                             _VNF_TAGS)
        n_servers = topology.n_servers
        self._vnf_words = words[n_servers:]  # of the current block of instance ids
        streams = map(words_rng, words[:n_servers])
        self.servers = [
            [ServerState(d, s, rng=next(streams))
             for s in range(topology.servers_per_dc)]
            for d in range(topology.n_dcs)
        ]
        for row in self.servers:
            for server in row:
                self._schedule(server)

    # ---------------------------------------------------------------- events

    def _push(self, time: float, server: ServerState,
              instance: VnfInstance | None = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, server, instance))

    def _schedule(self, server: ServerState, inst: VnfInstance | None = None) -> None:
        """Draw and queue the next event of ``inst``, or of ``server`` if None:
        a failure if it is up, a repair if not."""
        f = self.failure
        if inst is None:
            entity = server
            mean = f.mttf_server if server.up else f.mttr_server
        else:
            entity = inst
            mean = f.mttf_vnf if inst.up else f.mttr_vnf
        entity.due = self.time + sample_exponential(entity.rng, mean)
        self._push(entity.due, server, inst)

    def advance_to(self, t: float) -> list[SimEvent]:
        """Process all pending events up to time t, in (time, seq) order."""
        if t < self.time:
            raise ValueError(f"cannot advance backwards ({t} < {self.time})")
        processed: list[SimEvent] = []
        while self._heap and self._heap[0][0] <= t:
            time, seq, server, inst = heapq.heappop(self._heap)
            if time != (inst or server).due:
                continue  # superseded, cancelled or suspended
            self.time = time
            if inst is None:
                kind = SERVER_FAIL if server.up else SERVER_REPAIR
                self._process_server_event(server)
                processed.append(SimEvent(time, seq, kind, server.dc_id,
                                          server.server_id))
            else:
                kind = VNF_FAIL if inst.up else VNF_REPAIR
                self._process_vnf_event(server, inst)
                processed.append(SimEvent(time, seq, kind, server.dc_id, server.server_id,
                                          inst.instance_id, inst.vnf_type))
        self.time = t
        return processed

    def _process_server_event(self, server: ServerState) -> None:
        self.changes += 1
        if server.up:
            server.up = False
            server.down_since = self.time
            # Freeze hosted instances: their state is kept and restored on
            # repair, so pending events and ages are suspended, not lost.
            for inst in server.vnfs:
                if inst.up:
                    self._up_counts[inst.vnf_type] -= 1
                inst.suspended = max(0.0, inst.due - self.time)
                inst.due = math.inf
        else:
            server.up = True
            downtime = self.time - server.down_since
            server.down_since = None
            for inst in server.vnfs:
                if inst.up:
                    self._up_counts[inst.vnf_type] += 1
                inst.age_anchor += downtime
                inst.due = self.time + inst.suspended
                inst.suspended = None
                self._push(inst.due, server, inst)
        self._schedule(server)

    def _process_vnf_event(self, server: ServerState, inst: VnfInstance) -> None:
        self.changes += 1
        if inst.up:
            inst.up = False
            self._up_counts[inst.vnf_type] -= 1
        else:
            inst.up = True
            self._up_counts[inst.vnf_type] += 1
            inst.age_anchor = self.time
        self._schedule(server, inst)

    # --------------------------------------------------------------- actions

    def apply_action(self, a: int, dc: int, server_id: int,
                     vnf_type: int) -> ActionOutcome:
        """Apply one management action; invalid targets become rejections.

        Action types: 1 create, 2 delete, 3 restart, 4 no-op. A component
        outside the topology raises ValueError naming it, no-ops included.
        Rejections (full/down server, no matching instance) leave the state
        unchanged.
        """
        topo = self.topology
        if a not in (1, 2, 3, 4):
            raise ValueError(f"action type must be in 1..4, got {a}")
        if not 0 <= dc < topo.n_dcs:
            raise ValueError(f"dc index must be in 0..{topo.n_dcs - 1}, got {dc}")
        if not 0 <= server_id < topo.servers_per_dc:
            raise ValueError(
                f"server index must be in 0..{topo.servers_per_dc - 1}, got {server_id}")
        if not 0 <= vnf_type < N_VNF_TYPES:
            raise ValueError(f"vnf type must be in 0..{N_VNF_TYPES - 1}, got {vnf_type}")
        if a == 4:
            return _NOOP
        server = self.servers[dc][server_id]
        if not server.up:
            return _SERVER_DOWN
        if a == 1:
            return self._create(server, vnf_type)
        if a == 2:
            return self._delete(server, vnf_type)
        return self._restart(server, vnf_type)

    def _create(self, server: ServerState, vnf_type: int) -> ActionOutcome:
        if len(server.vnfs) >= self.topology.max_vnfs_per_server:
            return _SERVER_FULL
        dc = server.dc_id
        i = (dc * self.topology.servers_per_dc + server.server_id) * N_VNF_TYPES + vnf_type
        if self.alloc_counts[i] >= self.topology.max_same_type_per_server:
            return _TYPE_CAP
        iid = self._next_instance_id
        block, row = divmod(iid, _VNF_STREAM_BLOCK)
        if block and not row:
            self._vnf_words = entity_words(self.seed, _VNF_TAGS + (0, iid))
        inst = VnfInstance(instance_id=iid, vnf_type=vnf_type,
                           age_anchor=self.time, rng=words_rng(self._vnf_words[row]))
        self._next_instance_id += 1
        server.vnfs.append(inst)
        self.alloc_counts[i] += 1
        self._dc_alloc[dc] += 1
        self._up_counts[vnf_type] += 1
        self._schedule(server, inst)
        self.changes += 1
        return ActionOutcome(True, "created", inst.instance_id)

    def _targeting_risk(self, inst: VnfInstance) -> float:
        # A failed instance is the maximal-risk target for deletion.
        if not inst.up:
            return 1.0
        return vnf_fail_risk(inst, self.time, self.failure.mttf_vnf)

    def _riskiest(self, candidates: list[VnfInstance]) -> VnfInstance:
        """The highest-risk candidate, the lowest id among ties; a lone one unscored."""
        if len(candidates) == 1:
            return candidates[0]
        return max(candidates, key=lambda v: (self._targeting_risk(v), -v.instance_id))

    def _delete(self, server: ServerState, vnf_type: int) -> ActionOutcome:
        candidates = [v for v in server.vnfs if v.vnf_type == vnf_type]
        if not candidates:
            return _NO_INSTANCE
        target = self._riskiest(candidates)
        target.due = math.inf  # cancel any pending event
        server.vnfs.remove(target)
        dc = server.dc_id
        self.alloc_counts[(dc * self.topology.servers_per_dc + server.server_id)
                          * N_VNF_TYPES + vnf_type] -= 1
        self._dc_alloc[dc] -= 1
        if target.up:
            self._up_counts[vnf_type] -= 1
        self.changes += 1
        return ActionOutcome(True, "deleted", target.instance_id)

    def _restart(self, server: ServerState, vnf_type: int) -> ActionOutcome:
        candidates = [v for v in server.vnfs if v.vnf_type == vnf_type and v.up]
        if not candidates:
            return _NO_INSTANCE
        target = self._riskiest(candidates)
        target.age_anchor = self.time
        self._schedule(server, target)
        self.changes += 1
        return ActionOutcome(True, "restarted", target.instance_id)

    # --------------------------------------------------------------- queries

    @property
    def dc_alloc(self) -> tuple[int, ...]:
        """Allocated instances per DC, up or not."""
        return tuple(self._dc_alloc)

    def sfc_complete(self) -> bool:
        """True iff every VNF type has an up instance on an up server."""
        return min(self._up_counts) > 0

    def operational_type_counts(self) -> list[int]:
        """Up instances on up servers, per VNF type."""
        return list(self._up_counts)

    def vnf_counts(self) -> np.ndarray:
        """Allocated instances per (dc, server, type), up or not (a new array)."""
        topo = self.topology
        return np.array(self.alloc_counts, dtype=int).reshape(
            topo.n_dcs, topo.servers_per_dc, N_VNF_TYPES)

    def energy_consumption(self, model: EnergyModel) -> tuple[float, list[float]]:
        """Total watts and per-DC breakdown over all allocated instances.

        Instances that are down (or on a down server) remain allocated and
        keep drawing power.
        """
        total = self.energy_total(model)  # also keeps the model's table
        return total, [self._energy_watts[n] for n in self._dc_alloc]

    def energy_total(self, model: EnergyModel) -> float:
        """``energy_consumption``'s total alone: the per-DC watts summed in DC order."""
        if model is not self._energy_model:
            n_max = self.topology.servers_per_dc * self.topology.max_vnfs_per_server
            self._energy_model, self._energy_watts = model, _energy_table(model, n_max)
        return float(sum(map(self._energy_watts.__getitem__, self._dc_alloc)))
