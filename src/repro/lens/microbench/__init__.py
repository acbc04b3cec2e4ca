"""LENS microbenchmarks: pointer chasing, overwrite, stride."""
