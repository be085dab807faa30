"""IMP001 fixture: module-level imports whose names are never read."""

from __future__ import annotations

import json  # finding: never used
import os.path
from collections import OrderedDict, deque  # finding: deque
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from decimal import Decimal  # used only in a string annotation
    from fractions import Fraction  # finding: never used

from itertools import chain as chained  # re-exported through __all__
from heapq import heappush  # lint: allow(IMP001)

__all__ = ["chained", "table"]


def table(rows: "List[Decimal]") -> OrderedDict:
    import math  # function-level imports are out of scope

    return OrderedDict((os.path.basename(str(row)), row) for row in rows)
