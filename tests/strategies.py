"""Shared hypothesis strategies for regions and DDGs.

One home for the generators every property-based test draws from
(previously duplicated ad hoc across the DDG/heuristic/RP modules):

* :func:`make_region` — a deterministic generated region from a pattern
  name, seed and size (also usable outside hypothesis, e.g. for goldens);
* :func:`regions` — a hypothesis strategy over generated regions;
* :func:`ddgs` — a hypothesis strategy over their dependence graphs;
* :func:`medium_regions` — the differential/seed-sweep sizing (large
  enough to exercise both passes, small enough for the scalar backend);
* :func:`non_ssa_regions` — hand-rolled regions over a small register
  pool: redefinitions, live-ins that are redefined or never read, dead
  defs (the generator above only emits SSA-ish regions).

Import from here (``from strategies import ddgs``); ``conftest`` re-exports
the same names so older spellings keep working.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.ddg import DDG
from repro.ir import RegionBuilder
from repro.ir.block import SchedulingRegion
from repro.suite.patterns import PATTERN_NAMES, pattern_region


def make_region(pattern: str, seed: int, size: int):
    """Deterministic generated region (used by strategies and tests)."""
    return pattern_region(pattern, random.Random(seed), size)


@st.composite
def regions(draw, min_size: int = 2, max_size: int = 40):
    """Hypothesis strategy: a deterministic generated region."""
    pattern = draw(st.sampled_from(PATTERN_NAMES))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return make_region(pattern, seed, size)


@st.composite
def ddgs(draw, min_size: int = 2, max_size: int = 40):
    """Hypothesis strategy: the DDG of a generated region."""
    return DDG(draw(regions(min_size=min_size, max_size=max_size)))


@st.composite
def medium_regions(draw, min_size: int = 6, max_size: int = 18):
    """Regions sized for cross-backend differential runs.

    Big enough that pass 2 is usually invoked (stalls, pressure targets),
    small enough that the scalar loop backend finishes in well under a
    second per schedule.
    """
    return draw(regions(min_size=min_size, max_size=max_size))


@st.composite
def non_ssa_regions(draw, max_size: int = 24):
    """Regions over a small register pool, so names are redefined freely.

    Extra live-ins may be read, redefined, or never touched; defs without
    a later reader are dead unless drawn live-out.
    """
    pool = ["v%d" % i for i in range(draw(st.integers(1, 5)))]
    pool += ["s%d" % i for i in range(draw(st.integers(0, 3)))]
    names = st.sampled_from(pool)
    b = RegionBuilder("non-ssa")
    for _ in range(draw(st.integers(1, max_size))):
        b.inst(
            draw(st.sampled_from(("op1", "op2", "v_add", "global_load"))),
            defs=draw(st.lists(names, max_size=2, unique=True)),
            uses=draw(st.lists(names, max_size=3, unique=True)),
        )
    b.live_in(*draw(st.lists(names, max_size=3, unique=True)))
    region = b.build()
    candidates = sorted(region.defined_registers | region.live_in)
    live_out = (
        draw(st.lists(st.sampled_from(candidates), max_size=4, unique=True))
        if candidates
        else []
    )
    return SchedulingRegion(
        region.instructions, region.name, live_in=region.live_in, live_out=live_out
    )
