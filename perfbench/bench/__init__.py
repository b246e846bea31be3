"""End-to-end benchmark of the private text search system.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
