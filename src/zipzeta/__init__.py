"""Exact stratification and zeta functions of zip-type quotient stacks,
with a brute-force finite-field census oracle."""

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
from .fforacle import (CensusReport, CrosscheckReport, FqField, crosscheck,
                       enumerate_census)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
