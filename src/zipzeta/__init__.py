"""Exact stratification and zeta functions of zip-type quotient stacks,
with a brute-force finite-field census oracle.

The census module, fforacle, is loaded on first use of one of its names
(PEP 562), so commands that never run the census do not pay for it.
"""

from importlib import import_module as _import_module

from .errors import (BadPrimePower, FieldTooLarge, FrobeniusDoesNotFixI,
                     FrobeniusDoesNotFixTheta, GroupTooLarge, InvalidCartan,
                     InvalidFrobenius, InvalidOmegaTable, MismatchDetected,
                     MixedGroups, NotFiniteType, NotInExtMinSet,
                     NotMinimalRep, NotPrime, ParseError, PoleEvaluation,
                     RootNotInSystem, SearchSpaceTooLarge, ThetaActionLeaks,
                     ThetaDoesNotPreserveI, ThetaNotSubgroup, ZipzetaError)
from .rootsystem import (CartanMatrix, Root, RootSystem, build_root_system,
                         cartan_matrix, direct_sum)
from .weyl import CosetTables, WeylElement, enumerate_group
from .extweyl import (DiagramAutomorphism, ExtWeylElement, ExtWeylGroup,
                      OmegaGroup)
from .zipstrata import (Stratum, Twist, ZipDatum, classify, compute_twist,
                        point_count)
from .zetafn import (QLaurent, SeriesExpansion, ZetaProduct, expand_series,
                     zeta_from_strata)
from .btgl import BTParams, bt_datum, bt_strata, bt_zeta

__version__ = "0.1.0"

_CENSUS_NAMES = ("CensusReport", "CrosscheckReport", "FqField", "crosscheck",
                 "enumerate_census")

__all__ = [
    "BTParams", "BadPrimePower", "CartanMatrix", "CensusReport",
    "CosetTables", "CrosscheckReport", "DiagramAutomorphism",
    "ExtWeylElement", "ExtWeylGroup", "FieldTooLarge", "FqField",
    "FrobeniusDoesNotFixI", "FrobeniusDoesNotFixTheta", "GroupTooLarge",
    "InvalidCartan", "InvalidFrobenius", "InvalidOmegaTable",
    "MismatchDetected", "MixedGroups", "NotFiniteType", "NotInExtMinSet",
    "NotMinimalRep", "NotPrime", "OmegaGroup", "ParseError",
    "PoleEvaluation", "QLaurent", "Root", "RootNotInSystem", "RootSystem",
    "SearchSpaceTooLarge", "SeriesExpansion", "Stratum",
    "ThetaActionLeaks", "ThetaDoesNotPreserveI", "ThetaNotSubgroup",
    "Twist", "WeylElement", "ZetaProduct", "ZipDatum", "ZipzetaError",
    "bt_datum", "bt_strata", "bt_zeta", "btgl", "build_root_system",
    "cartan_matrix", "classify", "compute_twist", "crosscheck",
    "direct_sum", "enumerate_census", "enumerate_group", "errors",
    "expand_series", "extweyl", "fforacle", "point_count", "rootsystem",
    "weyl", "zeta_from_strata", "zetafn", "zipstrata",
]


def __getattr__(name):
    if name == "fforacle" or name in _CENSUS_NAMES:
        census = _import_module(".fforacle", __name__)
        return census if name == "fforacle" else getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
