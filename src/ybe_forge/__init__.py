"""ybe-forge: exact and numeric classical r-matrices for sl(n).

Two exact rational pipelines (geometric on the cuspidal cubic, parabolic
Frobenius data), the elliptic torus solution with theta numerics, and a
verification surface tying them together.
"""

__version__ = "0.1.0"

# The coefficient ring of a tensor (`lie.GlTensor2.ring`) and a document's
# "scalar"; defined here, so that `document` need not load `lie`.
RATIONAL = "rational"
COMPLEX = "complex"
