"""Deterministic Up*/Down* routing on m-port n-trees.

The paper adopts a deterministic routing in the family of Up*/Down*
[Autonet] algorithms, specialised to fat trees: every message first ascends
to a Nearest Common Ancestor (NCA) of its source and destination and then
descends to the destination.  The particular deterministic variant (from the
authors' technical report [18]) chooses the ascending path from the
*destination address*, which spreads the traffic of different destinations
over different switches and therefore removes switch contention — the
property the analytical model relies on when it treats all channels of one
stage as statistically identical.

Modules
-------
* :mod:`repro.routing.nca` — nearest-common-ancestor computations on node
  addresses;
* :mod:`repro.routing.updown` — the deterministic router producing explicit
  channel-by-channel routes (full routes, ascending-only and descending-only
  legs for the concentrator/dispatcher journeys);
* :mod:`repro.routing.compile` — the same deterministic routes, computed
  in closed form with array arithmetic and frozen into integer-indexed
  tables over the compiled channel-id space (what the wormhole simulator's
  hot path consumes).
"""

from repro.routing.nca import (
    ascent_digits,
    common_prefix_length,
    nca_level,
    nca_switch,
)
from repro.routing.updown import Route, UpDownRouter
from repro.routing.compile import (
    CompiledSystemRoutes,
    CompiledTreeRoutes,
    compile_system_routes,
    compile_tree_routes,
)

__all__ = [
    "ascent_digits",
    "common_prefix_length",
    "nca_level",
    "nca_switch",
    "Route",
    "UpDownRouter",
    "CompiledSystemRoutes",
    "CompiledTreeRoutes",
    "compile_system_routes",
    "compile_tree_routes",
]
