"""latpack: exact lattice sphere packings built from binary codes.

Generalized Craig lattices, code lifting, exact shortest-vector
certification, Gilbert-Varshamov existence arithmetic, and reproduction of
published density tables with a discrepancy ledger.
"""

from .errors import CapacityError, LatpackError, ParameterError, ParseError, RankError
from .exactnum import IntMatrix, binom_sum, gram_det, is_prime, next_prime
from .craig import (
    CraigParams,
    IntegerLattice,
    LogDensity,
    center_density_lb,
    choose_params,
    craig_basis,
    membership,
    verify_section,
)
from .codes import (
    CodeSpec,
    LinearCode,
    concatenate,
    extend_parity,
    gv_exists,
    gv_max_k,
    lemma62_params,
    min_distance,
    repetition,
)
from .lift import (
    ConditionalVerdict,
    LiftResult,
    conditional_eval,
    construction_a_density,
    improve_craig_8x,
    lift_sublattice,
    lift_with_length_n_code,
    mordell_weil_density,
    mw_beater_search,
    pipeline_24n,
    sweep_dimension,
)
from .svp import Certificate, ReducedBasis, lll_reduce, shortest_vector, verify_min_norm
from .records import compare, emit_table, ingest, render_report

__version__ = "0.1.0"
