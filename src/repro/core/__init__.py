"""Core package: the paper's contribution.

Everything needed to (a) extract AS relationships from BGP Communities
and Local Preference, (b) detect hybrid IPv4/IPv6 relationships, and
(c) assess their impact through valley analysis and customer-tree
metrics.
"""
