"""Exact continued-fraction arithmetic around multiplication and division by 2.

The package namespace holds what `perfbench/` and the `python -O` test call
through `cf2.`; everything else is imported from its own module.
"""

from .bounds import falsify_b_bound, verify_b2_exhaustive
from .cf import parse_cf
from .doubling import double_cf, double_stream, halve_cf, halve_plus1_cf
from .equiv import class_key, family_chain, scan_self_similar
from .search import interval_bounds, run, witness_q
from .surd import (
    QuadraticSurd,
    double_surd,
    expand_surd,
    halve_plus1_surd,
    halve_surd,
    parse_surd,
)

__version__ = "0.1.0"
