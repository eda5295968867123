"""Lifelong landmark-map management.

The package is organized around a multi-session landmark map (`atlas.mapcore`)
that accumulates vehicle sorties as either rich mapping sessions or lightweight
observation sessions.  On top of the map sit appearance-based landmark ranking
and selection (`atlas.ranking`), offline map summarization down to a fixed
landmark budget (`atlas.summarize`), a synthetic world and sortie generator
(`atlas.worldgen`), a localization simulator (`atlas.locsim`), a networked map
backend with vehicle clients (`atlas.protocol`, `atlas.server`, `atlas.client`),
and an experiment driver exposed as the ``atlas`` command line tool
(`atlas.experiment`, `atlas.cli`).
"""

__version__ = "0.1.0"

from atlas.mapcore import (
    Landmark,
    MultiSessionMap,
    SessionKind,
    SessionRecord,
    Vertex,
)

__all__ = [
    "Landmark",
    "MultiSessionMap",
    "SessionKind",
    "SessionRecord",
    "Vertex",
    "__version__",
]
