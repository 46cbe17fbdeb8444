"""Data ingestion: FASTA parsing and writing, and flat key=value
configuration checked against a key table."""
