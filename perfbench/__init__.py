"""The repository's benchmark: four workloads, named metrics, one contract.

``python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1``
measures one workload in one process (the command ``BENCHMARK.json``
records); ``python3 -m perfbench`` runs the full set, each workload in a
fresh subprocess, and prints every metric by name and unit.  See
``perfbench/README.md`` for the glossary and the layer interaction table.
"""
