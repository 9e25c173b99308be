"""End-to-end pipeline benchmark of the repro package (see README.md)."""
