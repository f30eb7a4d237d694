"""Reproduction of "Detecting and Assessing the Hybrid IPv4/IPv6 AS Relationships".

Giotsas & Zhou, SIGCOMM 2011.

The package is organised as follows:

* :mod:`repro.core` — the paper's contribution: relationship inference
  from BGP Communities and Local Preference, hybrid-link detection,
  valley-path analysis, customer-tree metrics and the Figure-2
  correction experiment.
* :mod:`repro.topology` — AS-level topology substrate (annotated graph,
  synthetic Internet generator, serialization).
* :mod:`repro.bgp` — BGP substrate (attributes, policies, speakers,
  route propagation).
* :mod:`repro.collectors` — RouteViews / RIPE RIS substitute (MRT-like
  records, collectors, archives).
* :mod:`repro.irr` — community documentation substrate (dictionaries,
  registry, free-text parser).
* :mod:`repro.analysis` — the measurement pipeline and the Section-3
  statistics.
* :mod:`repro.datasets` — synthetic snapshot builder and hand-built
  scenarios.

Apart from :mod:`repro.pipeline` and :mod:`repro.sweep`, the
subpackages re-export nothing: import each name from the module that
defines it (``repro.core.relationships``, ``repro.analysis.stats`` ...),
so a command loads only the modules it runs.
"""

from repro.core.relationships import AFI, HybridType, Link, Relationship

__version__ = "1.0.0"

__all__ = ["AFI", "HybridType", "Link", "Relationship", "__version__"]
