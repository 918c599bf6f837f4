"""Command-line tools: the campaign registry, the experiment report,
DynaLint, tracediff, CRIT and the telemetry replay, and the SVG plots
the records draw.  Import each as a submodule
(``from repro.tools import report``); the package imports none of them,
so ``python -m repro.tools.<name>`` runs a module that is not yet
loaded."""
