"""AIDA-like data-analysis objects (Abstract Interfaces for Data Analysis).

The paper's analysis code produces histograms through the Java AIDA API;
intermediate results are merged at the manager and polled by the client
(§3.7).  This package is a Python equivalent with the same core design
constraints:

* every object is **mergeable** — ``a + b`` combines the statistics of two
  engines' partial results exactly (merge is associative and commutative,
  property-tested), which is what makes the scatter/merge architecture
  correct;
* every object can be **frozen** (read-only in place): results travel
  from engines to the AIDA manager service and on to the polling client
  as frozen objects, with no serialization in between;
* every object is **serializable** to plain dicts (:func:`to_dict` /
  :func:`from_dict`) — the durable form of checkpoints and digests;
* histograms carry weighted entries, under/overflow, and per-object moments
  (mean/rms) like their AIDA counterparts.

Public types: :class:`Axis`, :class:`Histogram1D`, :class:`Profile1D`
and :class:`ObjectTree`, plus fitting
(:mod:`repro.aida.fit`) and ASCII rendering (:mod:`repro.aida.render`).
Only binned types: a fixed-shape array merges by addition, whatever the
order the engines report in.
"""

from repro.aida.axis import Axis
from repro.aida.codec import decode_array, encode_array, payload_nbytes
from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.serial import from_dict, merge, to_dict
from repro.aida.tree import ObjectTree, TreeError

__all__ = [
    "Axis",
    "Histogram1D",
    "ObjectTree",
    "Profile1D",
    "TreeError",
    "decode_array",
    "encode_array",
    "from_dict",
    "merge",
    "payload_nbytes",
    "to_dict",
]
