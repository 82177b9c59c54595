"""A Maglev-style L4 load balancer.

Maglev (NSDI '16) builds a fixed-size lookup table from per-backend
preference lists so that (a) load spreads almost evenly and (b) most
flows keep their backend when the pool changes.  The paper's three-NF
chain ends in a Maglev-based load balancer; like the other shallow NFs
it only reads the 5-tuple and rewrites the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.flows import (
    FiveTuple,
    FlowKey,
    flow_hash,
    flow_hash_ports,
    flow_hash_prefix,
)
from repro.packet.ipv4 import IPv4Address
from repro.packet.packet import Packet


@dataclass(frozen=True)
class Backend:
    """One backend server in the load-balanced pool."""

    name: str
    ip: IPv4Address

    @classmethod
    def from_string(cls, name: str, ip: str) -> "Backend":
        """Build a backend from a dotted-quad string."""
        return cls(name=name, ip=IPv4Address.from_string(ip))


#: (backend names, table size), all ``_populate`` reads -> Maglev table,
#: a tuple so balancers over one pool share it safely.  Bound:
#: ``_MAGLEV_TABLES_LIMIT`` tables, then emptied.
MAGLEV_TABLES: Dict[Tuple[Tuple[str, ...], int], Tuple[int, ...]] = {}
_MAGLEV_TABLES_LIMIT = 64

#: The fast path's miss side, for every balancer in the process: (src,
#: dst, protocol) -> :func:`flow_hash_prefix` state, a pure function of
#: those ints (not of a pool), so exact across churn and runs.  Bound:
#: :attr:`MaglevLoadBalancer.MEMO_ENTRIES` entries, then emptied.
PREFIX_STATES: Dict[Tuple[int, int, int], int] = {}


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    factor = 2
    while factor * factor <= value:
        if value % factor == 0:
            return False
        factor += 1
    return True


def next_prime(value: int) -> int:
    """Smallest prime >= *value* (Maglev requires a prime table size)."""
    candidate = max(value, 2)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


class MaglevLoadBalancer(NetworkFunction):
    """Consistent-hashing load balancer using Maglev's population algorithm.

    Parameters
    ----------
    backends:
        The backend pool.
    table_size:
        Lookup-table size; rounded up to the next prime.  Maglev uses
        65537 in production; the default here is smaller so unit tests
        stay fast while preserving the algorithm.
    hash_cycles / rewrite_cycles:
        CPU cost of hashing the 5-tuple and rewriting the destination.
    """

    #: Entries the per-flow memo and :data:`PREFIX_STATES` each hold
    #: before they are emptied.  A cleared memo only recomputes what it
    #: held, so the bound moves host time, never a backend choice.
    MEMO_ENTRIES = 65_536

    def __init__(
        self,
        backends: Sequence[Backend],
        table_size: int = 251,
        hash_cycles: int = 120,
        rewrite_cycles: int = 60,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name or "MaglevLB")
        if not backends:
            raise ValueError("the load balancer needs at least one backend")
        self.backends: List[Backend] = list(backends)
        self.table_size = next_prime(table_size)
        self.hash_cycles = hash_cycles
        self.rewrite_cycles = rewrite_cycles
        self.lookup_table: Sequence[int] = self._shared_table()
        #: Fast-path memo: flow (as plain ints, read straight off the
        #: headers) -> backend.  Maglev is deterministic per flow (that
        #: is its whole point), so the FNV walk over the 5-tuple can be
        #: skipped for flows already mapped.  Exact while the table is:
        #: :meth:`set_backends` empties it.  Per balancer, unlike
        #: :data:`PREFIX_STATES`: its hits are the run's ``cache_hit_ratio``.
        self._backend_cache: Optional[Dict[FlowKey, Backend]] = None
        #: Cache efficiency counters (sampled by repro.obs as a hit-ratio
        #: gauge); plain int bumps, cheap enough to keep unconditional.
        self.cache_lookups = 0
        self.cache_hits = 0

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Memoize the per-flow backend choice (behaviour-preserving)."""
        self._backend_cache = {} if enabled else None

    # ------------------------------------------------------------------ #
    # Backend churn (control plane)
    # ------------------------------------------------------------------ #

    def set_backends(self, backends: Sequence[Backend]) -> None:
        """Replace the backend pool and rebuild the Maglev table.

        Backend churn is the whole point of Maglev (most flows keep
        their backend when the pool changes), but every cached per-flow
        choice is stale the moment the table is repopulated, so the
        fast-path memo is dropped — keeping it would silently pin flows
        to removed backends.  The prefix states stay: they are hash
        values, and the hash does not read the pool.
        """
        if not backends:
            raise ValueError("the load balancer needs at least one backend")
        self.backends = list(backends)
        self.lookup_table = self._shared_table()
        if self._backend_cache is not None:
            self._backend_cache.clear()

    def add_backend(self, backend: Backend) -> None:
        """Add one backend to the pool (table rebuild + cache invalidation)."""
        if any(existing.name == backend.name for existing in self.backends):
            raise ValueError(f"backend {backend.name!r} already exists")
        self.set_backends(self.backends + [backend])

    def remove_backend(self, name: str) -> Backend:
        """Drain one backend out of the pool (table rebuild + cache invalidation)."""
        for index, backend in enumerate(self.backends):
            if backend.name == name:
                remaining = self.backends[:index] + self.backends[index + 1:]
                self.set_backends(remaining)
                return backend
        raise ValueError(f"no backend named {name!r}")

    # ------------------------------------------------------------------ #
    # Maglev table population
    # ------------------------------------------------------------------ #

    def _hash(self, data: str, seed: int) -> int:
        value = 0xCBF29CE484222325 ^ (seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
        for char in data:
            value ^= ord(char)
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return value

    def _shared_table(self) -> Tuple[int, ...]:
        """This pool's table from :data:`MAGLEV_TABLES`, populated on a miss."""
        key = (tuple(backend.name for backend in self.backends), self.table_size)
        if key not in MAGLEV_TABLES:
            if len(MAGLEV_TABLES) >= _MAGLEV_TABLES_LIMIT:
                MAGLEV_TABLES.clear()
            MAGLEV_TABLES[key] = tuple(self._populate())
        return MAGLEV_TABLES[key]

    def _populate(self) -> List[int]:
        """Build the lookup table from each backend's permutation."""
        size = self.table_size
        permutations = []
        for backend in self.backends:
            offset = self._hash(backend.name, seed=1) % size
            skip = self._hash(backend.name, seed=2) % (size - 1) + 1
            permutations.append([(offset + j * skip) % size for j in range(size)])
        table = [-1] * size
        next_index = [0] * len(self.backends)
        filled = 0
        while filled < size:
            for backend_index in range(len(self.backends)):
                if filled >= size:
                    break
                permutation = permutations[backend_index]
                cursor = next_index[backend_index]
                while cursor < size and table[permutation[cursor]] >= 0:
                    cursor += 1
                if cursor >= size:
                    next_index[backend_index] = cursor
                    continue
                table[permutation[cursor]] = backend_index
                next_index[backend_index] = cursor + 1
                filled += 1
        return table

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #

    def backend_for(self, flow: FiveTuple) -> Backend:
        """Return the backend consistently chosen for *flow*."""
        return self._backend_for(flow.key())

    def _backend_for(self, key: FlowKey) -> Backend:
        cache = self._backend_cache
        if cache is None:
            return self.backends[self.lookup_table[flow_hash(key) % self.table_size]]
        self.cache_lookups += 1
        backend = cache.get(key)
        if backend is not None:
            self.cache_hits += 1
            return backend
        # A new flow: resume flow_hash from its hosts' prefix state.
        hosts = key[:3]
        state = PREFIX_STATES.get(hosts)
        if state is None:
            if len(PREFIX_STATES) >= self.MEMO_ENTRIES:
                PREFIX_STATES.clear()
            state = PREFIX_STATES[hosts] = flow_hash_prefix(*hosts)
        backend = self.backends[
            self.lookup_table[flow_hash_ports(state, key[3], key[4]) % self.table_size]
        ]
        if len(cache) >= self.MEMO_ENTRIES:
            cache.clear()
        cache[key] = backend
        return backend

    def process(self, packet: Packet) -> NfResult:
        """Rewrite the destination address to the chosen backend."""
        ip = packet.ip
        l4 = packet.l4
        if ip is None or l4 is None:
            return FORWARDED
        backend = self._backend_for(
            (ip.src.value, ip.dst.value, ip.protocol, l4.src_port, l4.dst_port)
        )
        ip.dst = backend.ip
        return FORWARDED

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def load_imbalance(self) -> float:
        """Max/mean ratio of table entries per backend (1.0 is perfect)."""
        counts = [0] * len(self.backends)
        for entry in self.lookup_table:
            counts[entry] += 1
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    @classmethod
    def with_backend_count(cls, count: int, table_size: int = 251,
                           name: Optional[str] = None) -> "MaglevLoadBalancer":
        """Build a pool of *count* synthetic backends (10.100.0.x)."""
        backends = [
            Backend.from_string(f"backend-{i}", f"10.100.0.{i + 1}") for i in range(count)
        ]
        return cls(backends=backends, table_size=table_size, name=name)
