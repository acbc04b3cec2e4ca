"""LENS probers: buffer, policy, performance, and address mapping."""
