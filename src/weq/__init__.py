"""Exact-arithmetic toolkit for word equations.

Words, morphisms and systems of word equations; their encoding as
vectors of sparse integer polynomials; binomial factorization of the
pair determinants, which classifies rank-(n-1) common solutions by
hyperplane length constraints; principal decompositions; and a
brute-force search that verifies everything at desk scale.

Each name is imported from the module that defines it, for example
``from weq.words import Word``; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
