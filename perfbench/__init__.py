"""End-to-end and per-layer benchmark of neuralscr (run with ``python3 perfbench/run.py``)."""
