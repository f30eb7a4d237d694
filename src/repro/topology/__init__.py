"""AS-level topology substrate: graph, tiers, generator (configured by
:mod:`repro.topology.config`) and serialization."""
