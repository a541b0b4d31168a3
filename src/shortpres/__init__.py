"""Short presentations of alternating and symmetric groups.

Two- and three-generator presentations of A_n and S_n whose total bit
length grows like log n, together with the machinery to verify them:
exact permutation arithmetic, straight-line-program words with bit-length
accounting, deterministic order certification, and evaluations showing
that the uncorrected variants of the constructions fail.
"""

__version__ = "0.1.0"
