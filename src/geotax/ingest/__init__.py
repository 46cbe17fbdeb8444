"""Data ingestion: FASTA parsing, genome REST client with caching,
flat key=value configuration, and the deterministic result cache."""
