"""Quantum Fisher information toolkit for depolarizing-channel parameter
estimation with mixed (polarization-r) initial qubit states.

Import names from their submodules, e.g.
``from depolqfi.correlated import correlated_qfi``; importing the package
itself loads none of them, so each command line call loads only what it
runs."""

__version__ = "0.1.0"
