"""Measurement pipeline: path/link extraction, statistics, reachability, reports."""
