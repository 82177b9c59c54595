"""Network functions and the NF-framework model.

PayloadPark targets *shallow* NFs — functions that examine only packet
headers.  The paper evaluates firewalls (linear ACL probing), a MazuNAT-
style NAT, a Maglev-style L4 load balancer, a MAC-address swapper used
for functional-equivalence checks, and synthetic NFs of calibrated CPU
cost (NF-Light/Medium/Heavy).  NFs run inside an NF framework
(OpenNetVM or NetBricks in the paper); the framework model captures the
per-packet overhead and buffering that determine when the NF server
becomes compute bound.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.nf.base": ("NetworkFunction", "NfResult", "NfVerdict"),
        "repro.nf.chain": ("NfChain",),
        "repro.nf.firewall": ("Firewall", "FirewallRule"),
        "repro.nf.nat": ("Nat", "NatBinding"),
        "repro.nf.loadbalancer": ("MaglevLoadBalancer", "Backend"),
        "repro.nf.macswap": ("MacSwapper",),
        "repro.nf.synthetic": (
            "SyntheticNf",
            "NF_LIGHT_CYCLES",
            "NF_MEDIUM_CYCLES",
            "NF_HEAVY_CYCLES",
        ),
        "repro.nf.framework": ("NfFramework", "OPENNETVM", "NETBRICKS"),
        "repro.nf.server": ("NfServerModel", "NfServerConfig"),
    },
)
