"""Multiphase Cahn-Hilliard-Brinkman/Darcy tumor-growth simulator.

The package root re-exports nothing: import each name from its module, as
in ``from mchb.stepping import TimeStepper``.  A command that only reads a
configuration then loads no solver module.
"""

__version__ = "0.1.0"
