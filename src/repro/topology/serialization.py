"""Reading and writing relationship-annotated AS topologies.

Two on-disk formats are supported:

* The classic **CAIDA as-rel** format, one link per line::

      # comment lines start with '#'
      <provider-as>|<customer-as>|-1        (p2c)
      <as-a>|<as-b>|0                       (p2p)
      <as-a>|<as-b>|1                       (sibling, rarely used)

  The format carries a single relationship per link, so serializing an
  :class:`~repro.topology.graph.ASGraph` to it requires choosing an
  address family.

* An **extended dual-stack format** that keeps both planes, one link per
  line::

      <as-a>|<as-b>|<rel-v4>|<rel-v6>

  where ``rel-*`` is one of ``-1`` (a is provider of b), ``1`` (a is
  customer of b), ``0`` (peering), ``2`` (sibling) or ``x`` (the link is
  absent from that plane).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TextIO, Tuple, Union

from repro.core.relationships import AFI, Relationship
from repro.topology.graph import ASGraph

_REL_TO_CAIDA = {
    Relationship.P2C: "-1",
    Relationship.P2P: "0",
    Relationship.SIBLING: "1",
}
_CAIDA_TO_REL = {
    "-1": Relationship.P2C,
    "0": Relationship.P2P,
    "1": Relationship.SIBLING,
}

_REL_TO_EXT = {
    Relationship.P2C: "-1",
    Relationship.C2P: "1",
    Relationship.P2P: "0",
    Relationship.SIBLING: "2",
    Relationship.UNKNOWN: "x",
}
_EXT_TO_REL = {value: key for key, value in _REL_TO_EXT.items()}


class TopologyFormatError(ValueError):
    """Raised when a topology file cannot be parsed."""


def _open_for_read(source: Union[str, Path, TextIO]) -> Tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: Union[str, Path, TextIO]) -> Tuple[TextIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


# ----------------------------------------------------------------------
# CAIDA as-rel (single plane)
# ----------------------------------------------------------------------
def write_caida_asrel(
    graph: ASGraph, target: Union[str, Path, TextIO], afi: AFI
) -> int:
    """Write the links of one plane in CAIDA as-rel format.

    p2c links are emitted provider-first, as the format requires.
    Returns the number of links written.
    """
    stream, should_close = _open_for_write(target)
    count = 0
    try:
        stream.write(f"# CAIDA as-rel export, afi={afi}\n")
        for link in graph.links(afi):
            rel = graph.relationship(link.a, link.b, afi)
            if rel is Relationship.P2C:
                stream.write(f"{link.a}|{link.b}|-1\n")
            elif rel is Relationship.C2P:
                stream.write(f"{link.b}|{link.a}|-1\n")
            elif rel in (_REL_TO_CAIDA.keys()):
                stream.write(f"{link.a}|{link.b}|{_REL_TO_CAIDA[rel]}\n")
            else:
                continue
            count += 1
    finally:
        if should_close:
            stream.close()
    return count


def read_caida_asrel(
    source: Union[str, Path, TextIO], afi: AFI, graph: Optional[ASGraph] = None
) -> ASGraph:
    """Read a CAIDA as-rel file into (a plane of) an :class:`ASGraph`.

    When ``graph`` is given the links are merged into it, which is how a
    dual-stack graph is assembled from separate IPv4 and IPv6 files.
    """
    stream, should_close = _open_for_read(source)
    graph = graph if graph is not None else ASGraph()
    try:
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) < 3:
                raise TopologyFormatError(
                    f"line {line_number}: expected 'asn|asn|rel', got {line!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise TopologyFormatError(
                    f"line {line_number}: invalid AS number in {line!r}"
                ) from exc
            rel_code = parts[2]
            if rel_code not in _CAIDA_TO_REL:
                raise TopologyFormatError(
                    f"line {line_number}: unknown relationship code {rel_code!r}"
                )
            rel = _CAIDA_TO_REL[rel_code]
            if afi is AFI.IPV4:
                graph.add_link(a, b, rel_v4=rel)
            else:
                graph.add_link(a, b, rel_v6=rel)
    finally:
        if should_close:
            stream.close()
    return graph


# ----------------------------------------------------------------------
# Extended dual-stack format
# ----------------------------------------------------------------------
def write_dual_stack(graph: ASGraph, target: Union[str, Path, TextIO]) -> int:
    """Write every link with both relationship annotations.

    Returns the number of links written.
    """
    stream, should_close = _open_for_write(target)
    count = 0
    try:
        stream.write("# dual-stack as-rel export: a|b|rel_v4|rel_v6 (canonical orientation)\n")
        for link in graph.links():
            record = graph.dual_stack_relationship(link.a, link.b)
            stream.write(
                f"{link.a}|{link.b}|{_REL_TO_EXT[record.ipv4]}|{_REL_TO_EXT[record.ipv6]}\n"
            )
            count += 1
    finally:
        if should_close:
            stream.close()
    return count


def read_dual_stack(source: Union[str, Path, TextIO]) -> ASGraph:
    """Read a dual-stack as-rel file produced by :func:`write_dual_stack`."""
    stream, should_close = _open_for_read(source)
    graph = ASGraph()
    try:
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) != 4:
                raise TopologyFormatError(
                    f"line {line_number}: expected 'a|b|rel_v4|rel_v6', got {line!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise TopologyFormatError(
                    f"line {line_number}: invalid AS number in {line!r}"
                ) from exc
            try:
                rel_v4 = _EXT_TO_REL[parts[2]]
                rel_v6 = _EXT_TO_REL[parts[3]]
            except KeyError as exc:
                raise TopologyFormatError(
                    f"line {line_number}: unknown relationship code in {line!r}"
                ) from exc
            if a > b:
                # The file stores canonical orientation; a>b is malformed.
                raise TopologyFormatError(
                    f"line {line_number}: links must be in canonical orientation (a < b)"
                )
            graph.add_link(
                a,
                b,
                rel_v4=rel_v4 if rel_v4.is_known else None,
                rel_v6=rel_v6 if rel_v6.is_known else None,
            )
    finally:
        if should_close:
            stream.close()
    return graph
