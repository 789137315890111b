"""The two_prod path of the double-double arithmetic.

The package's double-double arithmetic is the C source of
:mod:`rbcert.fem`; the tests keep its numpy form in ``tests/conftest.py``
as the reference.  Both take two_prod's residual by Dekker's splitting.
"""

# Kept only for the benchmark's environment record, which reports it.
TWO_PROD_PATH = "dekker-split"
