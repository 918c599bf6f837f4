"""DynaBench: the host-time benchmark of the DynaCut simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh interpreters and prints one
JSON result line.  See ``perfbench/config.json`` for the workloads and
the layer map, and ``perfbench/run.py`` for what a run measures.
"""
