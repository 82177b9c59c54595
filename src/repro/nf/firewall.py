"""A stateless firewall that linearly probes an access-control list.

The paper's firewall "linearly probes through a list of blacklisted IP
addresses" — the three-NF chain uses 20 rules, the two-NF chain a single
rule — so its per-packet cost grows with the rule count, which is what
makes the FW → NAT chain more compute-hungry than a lone NAT (§6.2.2).
The chain's stage estimate charges ``cycles_per_rule`` for every rule.

That linear probe (:meth:`Firewall._probe`) is the reference.  The
default engine answers the same question — which is the *first* rule
that matches, and hence the verdict and its reason —
through a classifier compiled from the rule list: rules grouped by
prefix length, one dict probe per distinct mask, lowest matching rule
index wins.  It costs the same for a flow it has never seen as for one
it has, which a verdict memo in front of a linear probe does not: on
the headline scenario (4096 flows, ~3.5 k packets per deployment) such
a memo was measured to miss on every packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.ipv4 import IPv4Address
from repro.packet.packet import Packet


@dataclass(frozen=True)
class FirewallRule:
    """One ACL entry: drop packets whose source address falls in a prefix.

    Attributes
    ----------
    network / prefix_len:
        The blacklisted source prefix.
    dst_port:
        Optional destination-port qualifier (``None`` matches any port).
    """

    network: IPv4Address
    prefix_len: int = 32
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix_len}")
        if self.dst_port is not None and not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError(f"dst_port out of range: {self.dst_port}")

    def matches(self, packet: Packet) -> bool:
        """True when *packet* should be dropped by this rule."""
        if packet.ip is None:
            return False
        if not packet.ip.src.in_subnet(self.network, self.prefix_len):
            return False
        if self.dst_port is not None:
            if packet.l4 is None or packet.l4.dst_port != self.dst_port:
                return False
        return True

    @classmethod
    def blacklist(cls, cidr: str) -> "FirewallRule":
        """Build a rule from ``"a.b.c.d/len"`` (or a bare address)."""
        if "/" in cidr:
            address, prefix = cidr.split("/", 1)
            return cls(network=IPv4Address.from_string(address), prefix_len=int(prefix))
        return cls(network=IPv4Address.from_string(cidr), prefix_len=32)


class Firewall(NetworkFunction):
    """Linear-probe ACL firewall.

    Parameters
    ----------
    rules:
        Blacklist entries, probed in order; the first match drops the
        packet.
    cycles_per_rule:
        CPU cycles per rule of the linear search, in the chain's stage
        cost estimate (every rule is counted: the estimate is for a
        packet no rule drops).
    """

    def __init__(
        self,
        rules: Optional[Iterable[FirewallRule]] = None,
        cycles_per_rule: int = 6,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name or "Firewall")
        self.rules: List[FirewallRule] = list(rules or [])
        self.cycles_per_rule = cycles_per_rule
        #: Whether packets go through the classifier or the linear probe.
        self.fast_path = False
        #: Compiled from ``rules`` on the first packet after a change.
        self._classifier: Optional[tuple] = None

    def add_rule(self, rule: FirewallRule) -> None:
        """Append an ACL entry (invalidates the classifier)."""
        self.rules.append(rule)
        self._invalidate()

    def remove_rule(self, index: int) -> FirewallRule:
        """Remove and return the ACL entry at *index* (control plane).

        Like :meth:`add_rule`, drops the classifier: the verdicts depend
        on the rule list.
        """
        rule = self.rules.pop(index)
        self._invalidate()
        return rule

    def _invalidate(self) -> None:
        self._classifier = None

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Classify through a table compiled from the rule list.

        The ACL is stateless and rules only test the source prefix and
        optional destination port, so the first matching rule — and with
        it the verdict — is a pure function of that pair.  The classifier finds it
        with one dict probe per distinct prefix length instead of one
        comparison per rule; it is compiled lazily, on the first packet
        after ``add_rule`` / ``remove_rule``.
        """
        self.fast_path = enabled
        self._invalidate()

    def process(self, packet: Packet) -> NfResult:
        """Probe the ACL; drop on the first match."""
        if not self.fast_path:
            return self._probe(packet)
        classifier = self._classifier
        if classifier is None:
            classifier = self._classifier = self._compile()
        groups, results = classifier
        first = len(results) - 1
        ip = packet.ip
        if ip is not None:
            src_value = ip.src.value
            l4 = packet.l4
            dst_port = l4.dst_port if l4 is not None else None
            for mask, table in groups:
                entries = table.get(src_value & mask)
                if entries is not None:
                    for index, port in entries:
                        if index >= first:
                            break
                        if port is None or port == dst_port:
                            first = index
                            break
        return results[first]

    def _compile(self) -> tuple:
        """The rule list as a first-match classifier, ``(groups, results)``.

        ``groups`` holds one ``(mask, table)`` pair per distinct prefix
        length; ``table`` maps a masked source address to the ``(rule
        index, dst_port)`` pairs of the rules with that prefix, in rule
        order.  ``results[i]`` is the outcome of matching rule *i*
        first, ``results[len(rules)]`` that of matching none.
        """
        tables: Dict[int, Dict[int, List[Tuple[int, Optional[int]]]]] = {}
        for index, rule in enumerate(self.rules):
            mask = (0xFFFFFFFF << (32 - rule.prefix_len)) & 0xFFFFFFFF
            tables.setdefault(mask, {}).setdefault(
                rule.network.value & mask, []
            ).append((index, rule.dst_port))
        results = [
            self.drop(f"blacklisted by rule {index}") for index in range(len(self.rules))
        ]
        results.append(FORWARDED)
        return list(tables.items()), results

    def _probe(self, packet: Packet) -> NfResult:
        for index, rule in enumerate(self.rules):
            if rule.matches(packet):
                return self.drop(f"blacklisted by rule {index}")
        return FORWARDED

    @classmethod
    def with_rule_count(cls, rule_count: int, blacklist_subnet: str = "192.168.0.0/16",
                        name: Optional[str] = None) -> "Firewall":
        """Build a firewall with *rule_count* rules, only the last of which can hit.

        The evaluation varies the firewall's rule count to change its
        compute cost (20 rules for the three-NF chain, 1 for the two-NF
        chain); the rules point at an address range the traffic
        generator does not use unless an experiment deliberately directs
        a fraction of flows into it.
        """
        rules = [
            FirewallRule.blacklist(f"172.30.{i % 256}.0/24") for i in range(max(rule_count - 1, 0))
        ]
        rules.append(FirewallRule.blacklist(blacklist_subnet))
        return cls(rules=rules, name=name)
