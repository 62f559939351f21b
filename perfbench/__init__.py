"""End-to-end and per-layer benchmark of the disjunct CLI; see README.md."""
