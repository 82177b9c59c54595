"""Deployment specifications: declarative NF chain and rule-set descriptions.

Cloud providers describe an NF deployment (which NFs, in what order,
with which rule sets) in configuration rather than code; this module
turns such a description into the concrete NF objects of
:mod:`repro.nf`, so experiments and examples can be driven from plain
dictionaries (or JSON/YAML parsed into them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.nf.chain import NfChain
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.loadbalancer import Backend, MaglevLoadBalancer
from repro.nf.macswap import MacSwapper
from repro.nf.nat import Nat
from repro.nf.synthetic import SyntheticNf


@dataclass
class DeploymentSpec:
    """A declarative description of one NF-server deployment.

    Attributes
    ----------
    name:
        Deployment name.
    chain:
        A list of NF descriptions.  Each entry is a dict with a ``type``
        key (``firewall``, ``nat``, ``loadbalancer``, ``macswap`` or
        ``synthetic``) and type-specific parameters, e.g.::

            {"type": "firewall", "blacklist": ["192.168.0.0/16"]}
            {"type": "nat", "external_ip": "203.0.113.1"}
            {"type": "loadbalancer", "backends": {"web-1": "10.100.0.1"}}
            {"type": "synthetic", "cycles": 300}

        A firewall takes ``rule_count`` (an int >= 1) or ``blacklist``,
        not both; a load balancer's ``backends`` may be a count in
        1..255.  A key the type does not read is a ``ValueError`` naming
        the type and the key, never silently ignored.
    """

    name: str
    chain: List[Dict[str, Any]] = field(default_factory=list)

    def build(self) -> NfChain:
        """Materialize the NF chain described by this spec."""
        return build_chain(self.chain, name=self.name)


def build_chain(descriptions: List[Dict[str, Any]], name: str = "chain") -> NfChain:
    """Build an :class:`NfChain` from a list of NF descriptions."""
    if not descriptions:
        raise ValueError("a deployment needs at least one NF")
    nfs = [_build_nf(description) for description in descriptions]
    return NfChain(nfs, name=name)


#: The keys each NF type reads besides ``type``; any other key is refused.
_NF_KEYS = {
    "firewall": {"rule_count", "blacklist"},
    "nat": {"external_ip"},
    "loadbalancer": {"backends"},
    "macswap": set(),
    "synthetic": {"cycles"},
}


def _count(kind: str, key: str, value: Any, high: Optional[int] = None) -> int:
    """*value* as a count of at least 1 (and at most *high*), or a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1 or (
        high is not None and value > high
    ):
        span = f"in 1..{high}" if high is not None else ">= 1"
        raise ValueError(f"{kind}: {key!r} must be an int {span}, got {value!r}")
    return value


def _build_nf(description: Dict[str, Any]):
    kind = description.get("type")
    if not isinstance(kind, str) or kind not in _NF_KEYS:
        raise ValueError(f"unknown NF type {kind!r}")
    unknown = sorted(set(description) - _NF_KEYS[kind] - {"type"})
    if unknown:
        raise ValueError(
            f"{kind}: unknown key {unknown[0]!r} "
            f"(a {kind} takes {sorted(_NF_KEYS[kind]) or 'no keys'})"
        )
    if kind == "firewall":
        if "rule_count" in description:
            if "blacklist" in description:
                raise ValueError(f"{kind}: 'rule_count' and 'blacklist' are exclusive")
            return Firewall.with_rule_count(_count(kind, "rule_count", description["rule_count"]))
        rules = [FirewallRule.blacklist(cidr) for cidr in description.get("blacklist", [])]
        return Firewall(rules=rules)
    if kind == "nat":
        return Nat(external_ip=description.get("external_ip", "203.0.113.1"))
    if kind == "loadbalancer":
        backends_spec = description.get("backends", {})
        if not isinstance(backends_spec, dict):
            # The count shorthand: backends at 10.100.0.1 .. 10.100.0.<count>.
            return MaglevLoadBalancer.with_backend_count(
                _count(kind, "backends", backends_spec, high=255)
            )
        backends = [Backend.from_string(name, ip) for name, ip in backends_spec.items()]
        return MaglevLoadBalancer(backends=backends)
    if kind == "macswap":
        return MacSwapper()
    if "cycles" not in description:
        raise ValueError(f"{kind}: 'cycles' is required")
    return SyntheticNf(int(description["cycles"]))
