"""Frozen oracles: the bodies a performance change replaced, kept verbatim
so a differential test can hold the fast implementation to them."""
