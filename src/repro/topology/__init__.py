"""AS-level topology substrate: graph, tiers, generator and serialization."""
