"""BGP substrate: prefixes, attributes, routes, policies, speakers, propagation."""
