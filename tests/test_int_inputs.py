"""Every integer input of the public entry points passes one rule: a plain
``int`` that is not a ``bool``.  Anything else raises the site's typed error,
never a bare TypeError and never a result built from ``True`` as 1."""

import re

import pytest

from cayleyiso.balls import (average_length, enumerate_ball, growth_rate_upper, phi,
                             table_for_volume)
from cayleyiso.constants import (BallSubsetsScope, ConnectedScope, CscBound, FolnerBound,
                                 certify_at_scale, folner_to_csc, quotient_estimate)
from cayleyiso.errors import BadParams, RadiusOutOfRange
from cayleyiso.folner import (adjacency_index, connected_subsets, folner_exact,
                              folner_family_upper, min_ratio_table)
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import FiniteSubset, inequality_rhs, inequality_volume
from cayleyiso.transport import build_ledger

BAD_VALUES = (True, False, 2.0, "2")

Z1 = make_group("z:1")
TABLE = enumerate_ball(Z1, 3)
OMEGA = FiniteSubset(Z1, [(0,), (1,)])
BOUND = CscBound(0, 0)


# input id -> (call with the bad value, error, the name the error text gives;
# None for the rationals and volumes, which are not integer-only)
CASES = {
    "enumerate_ball-radius": (lambda v: enumerate_ball(Z1, v), RadiusOutOfRange, "radius"),
    "enumerate_ball-max_elements": (lambda v: enumerate_ball(Z1, 2, max_elements=v),
                                    BadParams, "max_elements"),
    "table_for_volume-volume": (lambda v: table_for_volume(Z1, v), BadParams, None),
    "table_for_volume-max_elements": (lambda v: table_for_volume(Z1, 5, max_elements=v),
                                      BadParams, "max_elements"),
    "table_for_volume-start_radius": (lambda v: table_for_volume(Z1, 5, start_radius=v),
                                      RadiusOutOfRange, "start_radius"),
    "adjacency_index-max_size": (lambda v: adjacency_index(Z1, v), RadiusOutOfRange,
                                 "max_size"),
    "adjacency_index-max_elements": (lambda v: adjacency_index(Z1, 2, max_elements=v),
                                     BadParams, "max_elements"),
    "min_ratio_table-max_size": (lambda v: min_ratio_table(Z1, v), BadParams, "max_size"),
    "min_ratio_table-max_elements": (lambda v: min_ratio_table(Z1, 3, max_elements=v),
                                     BadParams, "max_elements"),
    "connected_subsets-max_size": (lambda v: next(connected_subsets(Z1, v)), BadParams,
                                   "max_size"),
    "MinRatioTable.min_ratio": (lambda v: min_ratio_table(Z1, 3).min_ratio(v), BadParams,
                                "size"),
    "MinRatioTable.witness_subset": (lambda v: min_ratio_table(Z1, 3).witness_subset(v),
                                     BadParams, "size"),
    "folner_exact-n": (lambda v: folner_exact(Z1, v, 4), BadParams, "n"),
    "folner_exact-cap": (lambda v: folner_exact(Z1, 2, v), BadParams, "cap"),
    "folner_exact-max_elements": (lambda v: folner_exact(Z1, 2, 4, max_elements=v),
                                  BadParams, "max_elements"),
    # n = 1 and a non-amenable group search nothing, and check the budget too
    "folner_exact-n1-max_elements": (lambda v: folner_exact(Z1, 1, 4, max_elements=v),
                                     BadParams, "max_elements"),
    "folner_exact-free-max_elements": (
        lambda v: folner_exact(make_group("free:2"), 2, 4, max_elements=v),
        BadParams, "max_elements"),
    "folner_family_upper-n": (lambda v: folner_family_upper(Z1, v), BadParams, "n"),
    "ConnectedScope-max_size": (ConnectedScope, BadParams, "max_size"),
    "BallSubsetsScope-radius": (BallSubsetsScope, RadiusOutOfRange, "radius"),
    "certify_at_scale-ball-max_elements": (
        lambda v: certify_at_scale(Z1, BOUND, BallSubsetsScope(1), max_elements=v),
        BadParams, "max_elements"),
    "certify_at_scale-connected-max_elements": (
        lambda v: certify_at_scale(Z1, BOUND, ConnectedScope(3), max_elements=v),
        BadParams, "max_elements"),
    "build_ledger-r": (lambda v: build_ledger(OMEGA, TABLE, v), BadParams, "radius"),
    "build_ledger-max_elements": (lambda v: build_ledger(OMEGA, TABLE, 2, max_elements=v),
                                  BadParams, "max_elements"),
    "BallTable.members": (TABLE.members, RadiusOutOfRange, "radius"),
    "average_length-r": (lambda v: average_length(TABLE, v), RadiusOutOfRange, "radius"),
    "growth_rate_upper-horizon": (lambda v: growth_rate_upper(TABLE, v), RadiusOutOfRange,
                                  "horizon"),
    "quotient_estimate-horizon": (lambda v: quotient_estimate(Z1, v, [], TABLE),
                                  RadiusOutOfRange, "horizon"),
    "folner_to_csc-generating_set_size": (lambda v: folner_to_csc(FolnerBound(1, 0, 0), v),
                                          BadParams, "generating_set_size"),
    "CscBound-c": (lambda v: CscBound(v, 0), BadParams, None),
    "CscBound-alpha": (lambda v: CscBound(1, v), BadParams, None),
    "FolnerBound-c": (lambda v: FolnerBound(v, 0, 0), BadParams, None),
    "FolnerBound-alpha": (lambda v: FolnerBound(1, v, 0), BadParams, None),
    "FolnerBound-rho": (lambda v: FolnerBound(1, 0, v), BadParams, None),
    "phi-volume": (lambda v: phi(TABLE, v), BadParams, None),
    "BallTable.volume_at": (TABLE.volume_at, BadParams, None),
    "inequality_volume-size": (lambda v: inequality_volume("csc-original", v), BadParams,
                               "size"),
    "inequality_rhs-size": (lambda v: inequality_rhs(TABLE, "csc-original", v), BadParams,
                            "size"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES)
def test_integer_input_refuses_bools_floats_and_strings(call, error, name):
    for value in BAD_VALUES:
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error, value
        if name is not None:
            text = f"^{name} must be a (positive|non-negative) integer, got {value!r}$"
            assert re.match(text, str(info.value)), (value, str(info.value))

