"""End-to-end benchmark of the Nepal server (see ``perfbench/README.md``)."""
