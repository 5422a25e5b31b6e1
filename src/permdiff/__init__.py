"""Exact computation engine for free differential perm algebras.

Canonical normal forms and arithmetic, identity checking for the derived
products (including delta-parametric and formal-vector-field settings),
generated-subalgebra spans with exact multilinear dimensions, the reduction
of a nontrivial identity to a derivative-only one, and Witt-type Lie and
Leibniz brackets with verified structure-constant tables.

The package root re-exports nothing: each name is imported from the module
that defines it (``permdiff.algebra``, ``exprs``, ``spans``, ``reduction``,
``witt`` and ``cli``).
"""

__version__ = "0.1.0"
