"""Exact invariants and Milnor fibre homology for hypersurface germs
singular along a 3-dimensional i.c.i.s., presented as f = g * H * g^T.

Layers, bottom to top: rings (exact polynomial arithmetic), orders
(monomial orders), standard_basis (Mora's local standard bases,
colength, saturation), milnor (i.c.i.s. Milnor numbers), decomposition
(the presentation's invariants mu0, mu1, a, corank, #A1), homology
(tables, Smith normal form, bouquets), jobs (job files and reports),
corpus (built-in regressions), cli (entry point).
"""

from .decomposition import (
    CheckResult,
    InvariantReport,
    SingularityInput,
    assemble_f,
    invariant_report,
)
from .errors import (
    BudgetExceededError,
    ComputationError,
    InconsistencyError,
    InvalidIcisError,
    ParseError,
    RingMismatchError,
)
from .homology import (
    BouquetDescription,
    FgAbelianGroup,
    HomologyTable,
    bouquet,
    dkp_fibre,
    milnor_fibre_homology,
    smith_normal_form,
    table_B,
    table_M,
    table_pair_B_Bu,
    table_X,
)
from .jobs import Job, Report, parse_job, run_homology, run_invariants
from .milnor import check_icis, milnor_icis
from .orders import MonomialOrder, elimination_order, local_order
from .rings import (
    PolyMatrix,
    Polynomial,
    Ring,
    jacobian,
    leading_minors,
    parse_matrix,
    parse_polynomial,
)
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    colength,
    saturate,
)

__version__ = "0.1.0"

__all__ = [
    "BouquetDescription",
    "BudgetExceededError",
    "Budgets",
    "CheckResult",
    "ComputationError",
    "DEFAULT_BUDGETS",
    "FgAbelianGroup",
    "HomologyTable",
    "INFINITE",
    "InconsistencyError",
    "InvalidIcisError",
    "InvariantReport",
    "Job",
    "MonomialOrder",
    "ParseError",
    "PolyMatrix",
    "Polynomial",
    "Report",
    "Ring",
    "RingMismatchError",
    "SingularityInput",
    "assemble_f",
    "bouquet",
    "check_icis",
    "colength",
    "dkp_fibre",
    "elimination_order",
    "invariant_report",
    "jacobian",
    "leading_minors",
    "local_order",
    "milnor_fibre_homology",
    "milnor_icis",
    "parse_job",
    "parse_matrix",
    "parse_polynomial",
    "run_homology",
    "run_invariants",
    "saturate",
    "smith_normal_form",
    "table_B",
    "table_M",
    "table_pair_B_Bu",
    "table_X",
]
