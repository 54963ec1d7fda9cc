"""End-to-end benchmark of the repro package (run it with ``python3 perfbench/run.py``)."""
