"""Exact-arithmetic toolkit for cubulating crystallographic groups.

Everything here is computed over the rationals, with no floating point
anywhere.  The package decides which crystallographic groups admit a
proper cocompact action on a CAT(0) cube complex, builds the standard
wall families and their Sageev duals, and computes simplicial
boundaries of products of elementary complexes.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
