"""Search tools for extremal restricted additive 2-bases."""

__version__ = "0.1.0"

from .core import (  # noqa: E402,F401
    Basis,
    BasisClass,
    BasisError,
    as_basis,
    basis_range,
    classify,
    format_basis,
    mirror,
    parse_basis,
)
from .enumeration import EnumSpec, Workers, enumerate_admissible  # noqa: E402,F401
from .mitm import (  # noqa: E402,F401
    SearchReport,
    SearchTarget,
    find_extremal_restricted,
    search_restricted,
    upper_bound_restricted,
)
from .oracle import OracleResult, brute_force  # noqa: E402,F401
