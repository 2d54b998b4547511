"""Wall-clock benchmark of the HPAC-ML reproduction (see README.md)."""
