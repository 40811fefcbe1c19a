"""Output checks: canonical exact outputs, enclosures and a reference.

Each item's output is reduced to a :class:`Canon`:

* exact values (ledgers, sum defects, MAP indices, verdicts, code bits)
  feed a SHA-256 digest, so two commits can be compared value for value;
* certified enclosures (Hellinger, KL, ln and sqrt terms) are kept as
  rational intervals and compared with the reference by *intersection*,
  so a later change may narrow them without counting as a mismatch;
* floats (Monte Carlo ledgers) are compared with a relative tolerance;
* problems are invariant violations found at any seed (a failed bound row,
  a round trip that changed its string, a wrong payload length, ...).

The reference holds one record per item at the default seed, recorded
from the library as it was when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from mdl_lab.enclosure import FracInterval

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_seed0.json"
FLOAT_RTOL = 1e-9


class Canon:
    """Canonical form of one item's output."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.enclosures: List[Optional[tuple]] = []  # None stands for +inf
        self.floats: List[float] = []
        self.problems: List[str] = []
        self.min_slack_over_width: Optional[float] = None

    def exact(self, value) -> None:
        """An exact value; FracInterval points count as their value."""
        if isinstance(value, FracInterval):
            if not value.is_point:
                raise TypeError("exact() got a proper enclosure")
            value = value.lo
        self._hash.update(repr(value).encode())
        self._hash.update(b"\n")

    def enclosure(self, value) -> None:
        """A certified enclosure (a point is allowed) or +inf."""
        if value == math.inf:
            self.enclosures.append(None)
        else:
            self.enclosures.append((value.lo, value.hi))

    def float(self, value: float) -> None:
        self.floats.append(float(value))

    def slack(self, measured, bound) -> None:
        """Track certified slack divided by total enclosure width."""
        if measured == math.inf:
            return
        width = (measured.hi - measured.lo) + (bound.hi - bound.lo)
        if width == 0:
            return
        ratio = float((bound.lo - measured.hi) / width)
        if self.min_slack_over_width is None or ratio < self.min_slack_over_width:
            self.min_slack_over_width = ratio

    def problem(self, message: str) -> None:
        self.problems.append(message)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def record(self) -> dict:
        return {
            "digest": self.digest,
            "enclosures": [
                "inf" if e is None else [str(e[0]), str(e[1])] for e in self.enclosures
            ],
            "floats": [repr(f) for f in self.floats],
        }


def compare(canon: Canon, ref: Optional[dict]) -> List[str]:
    """Mismatches between an item's output and its reference record."""
    if ref is None:
        return ["no reference record for this item"]
    problems = []
    if canon.digest != ref["digest"]:
        problems.append("exact outputs differ from the reference")
    encs = ref["enclosures"]
    if len(encs) != len(canon.enclosures):
        problems.append(
            f"{len(canon.enclosures)} enclosures where the reference has {len(encs)}"
        )
    for n, (got, want) in enumerate(zip(canon.enclosures, encs)):
        if (got is None) != (want == "inf"):
            problems.append(f"enclosure {n}: finite/infinite differs from the reference")
        elif got is not None:
            lo, hi = Fraction(want[0]), Fraction(want[1])
            if max(got[0], lo) > min(got[1], hi):
                problems.append(f"enclosure {n} is disjoint from the reference")
    floats = [float(f) for f in ref["floats"]]
    if len(floats) != len(canon.floats):
        problems.append("float output count differs from the reference")
    for n, (got, want) in enumerate(zip(canon.floats, floats)):
        if abs(got - want) > FLOAT_RTOL * max(abs(want), 1e-300):
            problems.append(f"float {n} is {got!r}, the reference has {want!r}")
    return problems


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)["items"]


def run_digest(item_digests: Dict[str, str]) -> str:
    """One digest over every item's exact outputs, in item-id order."""
    h = hashlib.sha256()
    for item_id in sorted(item_digests):
        h.update(f"{item_id}:{item_digests[item_id]}\n".encode())
    return h.hexdigest()
