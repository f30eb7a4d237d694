"""Collector substrate: MRT-like records, collectors, vantage points, archives."""
