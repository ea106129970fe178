"""latpack: exact lattice sphere packings built from binary codes.

Generalized Craig lattices, code lifting, exact shortest-vector
certification, Gilbert-Varshamov existence arithmetic, and reproduction of
published density tables with a discrepancy ledger.  The modules are the
API: import each name from its own module (``from latpack.craig import
CraigParams``).
"""

__version__ = "0.1.0"
