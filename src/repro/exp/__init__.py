"""Experiment harnesses: one function per paper table (Tables 1-10),
plus a shared Runner that keeps datasets, embedding stores and AL
results in memory so the ~110 configurations the tables sweep each
execute once per process."""
