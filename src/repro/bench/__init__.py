"""Benchmark harness: sweeps, memoization, text figures."""
