"""IP prefix handling for both address families.

The reproduction never routes real packets, but prefixes still matter:
the collectors archive one RIB entry per (vantage point, prefix), paths
are counted per prefix, and the AFI of a prefix decides which plane a
path belongs to.  This module wraps :mod:`ipaddress` with the small
amount of convenience the rest of the library needs, plus a deterministic
per-AS prefix allocator used by the synthetic dataset builder.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Union

from repro.core.relationships import AFI

_IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 or IPv6 prefix in CIDR notation.

    The textual form is normalised through :mod:`ipaddress`, so two
    prefixes describing the same network compare equal regardless of how
    they were written.
    """

    network: str

    def __init__(self, network: Union[str, _IPNetwork]) -> None:  # noqa: D107
        parsed = (
            network
            if isinstance(network, (ipaddress.IPv4Network, ipaddress.IPv6Network))
            else ipaddress.ip_network(network, strict=True)
        )
        object.__setattr__(self, "network", str(parsed))
        # The address family is consulted on every import/export decision
        # of the propagation simulator; computing it through ``parsed``
        # would re-run the ipaddress parser each time (the seed profile
        # showed ~40 % of propagation wall time there), so it is derived
        # once at construction.  Not a dataclass field: equality,
        # ordering and hashing stay keyed on ``network`` alone.
        object.__setattr__(
            self, "_afi", AFI.IPV4 if parsed.version == 4 else AFI.IPV6
        )
        # Prefixes key every RIB dict in the propagation simulator; the
        # dataclass-generated hash builds a throwaway tuple per call, so
        # the hash is precomputed alongside.
        object.__setattr__(self, "_hash", hash((Prefix, str(parsed))))

    @classmethod
    def trusted(cls, network: str, afi: AFI) -> "Prefix":
        """A prefix over ``network`` whose canonical CIDR form the caller
        guarantees (as :meth:`PrefixAllocator.ipv4_prefix` builds it), so
        the :mod:`ipaddress` parse of ``__init__`` is skipped."""
        prefix = cls.__new__(cls)
        object.__setattr__(prefix, "network", network)
        object.__setattr__(prefix, "_afi", afi)
        object.__setattr__(prefix, "_hash", hash((Prefix, network)))
        return prefix

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # instances restored from pickles
            value = hash((Prefix, self.network))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        # The cached hash depends on the writing process's hash seed
        # (str hash randomization), so it must never cross a pickle
        # boundary; __hash__ recomputes it lazily on the reading side.
        return {"network": self.network, "_afi": self._afi}

    def __setstate__(self, state):
        object.__setattr__(self, "network", state["network"])
        object.__setattr__(self, "_afi", state["_afi"])

    @property
    def parsed(self) -> _IPNetwork:
        """The underlying :mod:`ipaddress` network object."""
        return ipaddress.ip_network(self.network)

    @property
    def afi(self) -> AFI:
        """Address family of the prefix."""
        try:
            return self._afi
        except AttributeError:  # instances restored from old pickles
            afi = AFI.IPV4 if self.parsed.version == 4 else AFI.IPV6
            object.__setattr__(self, "_afi", afi)
            return afi

    @property
    def length(self) -> int:
        """Prefix length in bits."""
        return self.parsed.prefixlen

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.afi is not other.afi:
            return False
        return other.parsed.subnet_of(self.parsed)

    def __str__(self) -> str:
        return self.network


class PrefixAllocator:
    """Deterministically allocate origin prefixes to ASes.

    Every AS receives one IPv4 ``/20`` carved from ``10.0.0.0/8`` and/or
    one IPv6 ``/32`` carved from the ``3fff::/20`` documentation block
    (sized so that tens of thousands of ASes fit without collision).
    Allocation is a pure function of the ASN, so independently
    constructed allocators agree.
    """

    IPV4_BASE = ipaddress.ip_network("10.0.0.0/8")
    IPV4_PLEN = 20
    IPV6_BASE = ipaddress.ip_network("3fff::/20")
    IPV6_PLEN = 32

    def __init__(self) -> None:
        self._ipv4_capacity = 2 ** (self.IPV4_PLEN - self.IPV4_BASE.prefixlen)
        self._ipv6_capacity = 2 ** (self.IPV6_PLEN - self.IPV6_BASE.prefixlen)
        self._ipv4_base = int(self.IPV4_BASE.network_address)
        self._ipv6_base = int(self.IPV6_BASE.network_address)

    # Both planes format their CIDR strings by integer arithmetic: a
    # round trip through ipaddress per prefix was half of the paper-scale
    # ``scenario`` stage.  ``tests/test_bgp_prefixes_attributes.py``
    # compares every index of both planes with the ipaddress result.
    def ipv4_prefix(self, asn: int) -> Prefix:
        """The IPv4 prefix originated by ``asn``."""
        index = asn % self._ipv4_capacity
        address = self._ipv4_base + (index << (32 - self.IPV4_PLEN))
        network = (
            f"{address >> 24}.{(address >> 16) & 255}.{(address >> 8) & 255}."
            f"{address & 255}/{self.IPV4_PLEN}"
        )
        return Prefix.trusted(network, AFI.IPV4)

    def ipv6_prefix(self, asn: int) -> Prefix:
        """The IPv6 prefix originated by ``asn``."""
        index = asn % self._ipv6_capacity
        address = self._ipv6_base + (index << (128 - self.IPV6_PLEN))
        # A /32 leaves the six low groups zero and the base's high group
        # is non-zero, so the canonical form (RFC 5952) is the two high
        # groups, a zero second group folding into the "::" run.
        high, second = address >> 112, (address >> 96) & 0xFFFF
        head = f"{high:x}:{second:x}" if second else f"{high:x}"
        return Prefix.trusted(f"{head}::/{self.IPV6_PLEN}", AFI.IPV6)

    def prefix(self, asn: int, afi: AFI) -> Prefix:
        """The prefix originated by ``asn`` in the requested plane."""
        return self.ipv4_prefix(asn) if afi is AFI.IPV4 else self.ipv6_prefix(asn)
