"""The repository benchmark: simulator cells and service jobs, per layer.

Run ``python3 perfbench/run.py --workload <name>``; see README.md.
"""
