"""Exact counting, enumeration, and verification of homogeneous colored linear orderings.

The package works with the finite encodings of two infinite families:
multicolored models (finite sequences of singly-colored R-points and
set-colored S-points, every color used at most once) and symbolic ordering
descriptions (sequences of singleton blocks and shuffles). Counting formulas,
generating functions, asymptotics, and brute-force enumeration are
cross-validated against each other; everything except the asymptotics module
is exact arbitrary-precision arithmetic.

Every public name lives in the module that defines it and is imported from
there, as in ``from homcount.counting import count_I`` or
``from homcount import counting``. Importing the package itself loads none of
its modules, so the CLI and scripts that use one layer do not pay for the
others.
"""

__version__ = "0.1.0"
