"""Regular divisor systems, generalized Ramanujan sums, and exact mean
values of even arithmetic functions.

Each name is imported from its module (`from ramlab.gensums import c_A`),
so importing a layer loads only the layers below it."""

__version__ = "0.1.0"
