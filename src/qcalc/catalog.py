"""Built-in catalog of structure-equation documents.

Sources are stored verbatim; `catalog show` prints them unchanged.
"""

from __future__ import annotations

_SOURCES: dict[str, str] = {
    "heisenberg": """algebra heisenberg dim 7
d e1 = 0
d e2 = 0
d e3 = 0
d e4 = 0
d e5 = e12 + e34
d e6 = e13 + e42
d e7 = e14 + e23
qc horizontal 1 2 3 4 vertical 5 6 7 scale 1
omega1 = e12 + e34
omega2 = e13 + e42
omega3 = e14 + e23
flag = e1 | e1, e2 | e1, e2, e3 | e1, e2, e3, e4 | e1, e2, e3, e4, e5 | e1, e2, e3, e4, e5, e6 | e1, e2, e3, e4, e5, e6, e7
""",
    "g1": """algebra g1 dim 7
d e1 = 0
d e2 = (1/2)e15 - e34 + (1/2)e46
d e3 = (1/2)e16 + e24 - (1/2)e45
d e4 = -2 e14
d e5 = 2(e12 + e34) - e46
d e6 = 2(e13 + e42) + e45
d e7 = 2(e14 + e23) - (1/2)e56
qc horizontal 1 2 3 4 vertical 5 6 7 scale 2
omega1 = e12 + e34
omega2 = e13 + e42
omega3 = e14 + e23
""",
    "g2": """algebra g2 dim 7
d e1 = 0
d e2 = (2/3)e12 + (1/6)e15 - (1/3)e34 + (1/6)e46
d e3 = -(2/3)e13 + (1/6)e16 - e24 - (1/6)e45
d e4 = -(2/3)e14
d e5 = 2(e12 + e34) - e46
d e6 = 2(e13 + e42) + e45
d e7 = 2(e14 + e23) - (1/6)e56
qc horizontal 1 2 3 4 vertical 5 6 7 scale 2
omega1 = e12 + e34
omega2 = e13 + e42
omega3 = e14 + e23
""",
    "prop31_family": """algebra prop31_family dim 7 param mu
d e1 = 0
d e2 = (1 + mu)e12 - mu e15 + mu e34 - mu e46
d e3 = -(1 + mu)e13 - (2 + 3 mu)e24 - mu e16 + mu e45
d e4 = 2 mu e14
d e5 = e12 + e34 - e46
d e6 = e13 + e42 + e45
d e7 = e14 + e23 + mu e56
qc horizontal 1 2 3 4 vertical 5 6 7 scale 1
omega1 = e12 + e34
omega2 = e13 + e42
omega3 = e14 + e23
flag = e1 | e1, e4 | e1, e4, e2 - mu e5 | e1, e4, e2 - mu e5, e3 + e6 | e1, e4, e2 - mu e5, e3 + e6, e5 | e1, e4, e2 - mu e5, e3 + e6, e5, e6 | e1, e4, e2 - mu e5, e3 + e6, e5, e6, e7
""",
}


def names() -> list[str]:
    return sorted(_SOURCES)


def source(name: str) -> str:
    return _SOURCES[name]
