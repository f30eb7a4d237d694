"""IRR substrate: community dictionaries, documentation parsing, registry."""
