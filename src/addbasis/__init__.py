"""Search tools for extremal restricted additive 2-bases.

The brute-force oracle (`brute_force`, `OracleResult`) is loaded on first
use, so a search never imports it.
"""

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
)
from .enumeration import EnumSpec, Workers, enumerate_admissible  # noqa: E402,F401
from .mitm import (  # noqa: E402,F401
    SearchReport,
    SearchTarget,
    find_extremal_restricted,
    search_restricted,
    upper_bound_restricted,
)

_ORACLE_NAMES = ("OracleResult", "brute_force")


def __getattr__(name: str):
    # PEP 562: only names the module does not define come here
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
