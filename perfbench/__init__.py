"""End-to-end and per-layer benchmark of effectcompat; run perfbench/run.py."""
