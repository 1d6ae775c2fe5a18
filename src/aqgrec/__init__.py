"""aqgrec: reconstruct discrete algebraic quantum groups from semisimple
tensor-category data and verify their structure numerically.

The package root loads nothing: import the submodules (aqgrec.bundle,
aqgrec.aqg, aqgrec.examples, ...), so that a process pays only for what it
runs.
"""

__version__ = "0.1.0"
