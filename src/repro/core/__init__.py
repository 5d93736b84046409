"""The paper's contribution as a user-facing API.

``EvolvingGraphEngine`` wraps scenario + algorithm + workflow selection;
``evaluate_multi_query`` extends BOE's snapshot sharing to many concurrent
query sources.
"""

from repro.core.engine import EvolvingGraphEngine
from repro.core.window_server import WindowServer
from repro.core.multi_query import MultiQueryResult, evaluate_multi_query

__all__ = [
    "EvolvingGraphEngine",
    "WindowServer",
    "MultiQueryResult",
    "evaluate_multi_query",
]
