"""Command-line tools: the campaign registry, tracediff, CRIT and the
experiment report.  Import each as a submodule
(``from repro.tools import report``); the package imports none of them,
so ``python -m repro.tools.<name>`` runs a module that is not yet
loaded."""
