"""kacforge: exact workbench for finite quantum-group constructions.

Builds the function-algebra crossed products of matched factorizations,
enumerates corepresentations honestly, audits closed-form
fusion/distinctness claims against brute-force oracles, and provides
crossed-product Fourier and random-walk diagnostics.
"""

__version__ = "0.1.0"
