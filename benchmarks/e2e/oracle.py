"""One oracle for every workload: reference trees and golden digests.

A session's final merged tree must be dict-equal to the tree a clean,
uncontended, single-site, flat-merge run of the same (dataset, engine
count, analysis) produces (every workload splits by events).  ``run_local`` is *not* that
oracle: float moment sums depend on how events are partitioned, so only
bin contents can be compared against a single-pass run (``paper_sweep``
does that on top).

``golden.json`` pins the sha256 of each reference tree's canonical JSON,
so a refactor that changes fold order is caught across commits, not just
within one run.  Digests are only comparable on the numeric platform
they were recorded on (numpy's SIMD transcendental kernels differ in the
last ulp between CPU families); the file carries a probe digest and the
golden check is skipped, loudly, where the probe does not match.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.aida.codec import decode_array, is_encoded
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig

from harness import Workload, tree_digest

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def reference_tree(dataset: dict, n_engines: int, source: str) -> dict:
    """Run one clean session on a fresh flat-merge site; returns ``tree.to_dict()``."""
    site = GridSite(SiteConfig(n_workers=n_engines, merge_fan_in=None))
    site.register_dataset(**dataset)
    client = IPAClient(site, site.enroll_user("/O=bench/CN=oracle"))
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(n_engines=n_engines)
        yield from client.select_dataset(dataset["dataset_id"])
        yield from client.upload_code(source)
        yield from client.run()
        result = yield from client.wait_for_completion(poll_interval=5.0)
        out["tree"] = result.tree.to_dict()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return out["tree"]


#: Relative tolerance under which two float accumulators count as the same
#: sum taken in a different order (observed differences are 1-2 ulp, ~1e-16).
FOLD_ORDER_RTOL = 1e-12


def same_up_to_fold_order(a, b) -> bool:
    """Dict equality, except float sums may differ by summation order.

    Counts, bin contents, axes and names must match exactly.
    """
    if is_encoded(a) and is_encoded(b):
        x, y = decode_array(a), decode_array(b)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.dtype.kind != "f":
            return bool(np.array_equal(x, y))
        return bool(np.allclose(x, y, rtol=FOLD_ORDER_RTOL, atol=0.0, equal_nan=True))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_up_to_fold_order(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_up_to_fold_order(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=FOLD_ORDER_RTOL) or (a != a and b != b)
    return type(a) is type(b) and a == b


def platform_probe() -> str:
    """Digest of the numeric kernels dataset generation depends on."""
    rng = np.random.default_rng(12345)
    x = rng.normal(size=4096)
    u = rng.uniform(0.01, 1.0, size=4096)
    parts = [x, np.exp(x), np.log(u), np.sin(x), np.cos(x), np.sqrt(u), np.arctan2(x, u), x.cumsum()]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write_golden(digests: Dict[str, str]) -> None:
    """Re-pin golden.json (``run.py --update-golden``): a deliberate act,
    reviewed like any other change to expected results."""
    body = {"platform_probe": platform_probe(), "digests": dict(sorted(digests.items()))}
    GOLDEN_PATH.write_text(json.dumps(body, indent=1) + "\n")


def digest_only(workload: Workload) -> None:
    """Hash every completed session's tree (the repeat-run determinism check)."""
    for record in workload.sessions:
        if record.failed is None:
            record.digest = tree_digest(record.tree.to_dict())


def check(workload: Workload, pins: bool = True) -> Tuple[Dict[str, str], List[str], str]:
    """Verify every completed session; marks mismatching sessions failed.

    Returns ``(digests by reference key, problems, golden status)``.
    Run after the timed region: computing the reference trees and
    hashing are oracle cost, not system cost.  ``pins=False`` skips the
    golden.json comparison (tiny self-test sizes; re-pinning).
    """
    golden = load_golden()
    same_platform = golden["platform_probe"] == platform_probe()
    golden_status = "checked" if same_platform else "skipped: numeric platform differs from golden.json"
    if not pins:
        golden_status = "not compared"
    references = {
        key: reference_tree(**kwargs) for key, kwargs in workload.references.items()
    }
    digests: Dict[str, str] = {key: tree_digest(tree) for key, tree in references.items()}
    problems: List[str] = []
    for record in workload.sessions:
        if record.failed is not None:
            continue
        tree = record.tree.to_dict()
        record.digest = tree_digest(tree)
        key = record.reference
        if key in references:
            if tree == references[key]:
                workload.oracle_exact += 1
            elif same_up_to_fold_order(tree, references[key]):
                # Known defect (README): a warm stage aligns parts to
                # workers greedily, so the sorted-engine fold visits the
                # parts in another order and float sums move by an ulp.
                workload.oracle_fold_order += 1
            else:
                record.failed = f"oracle: merged tree differs from the clean reference {key}"
        else:
            # No in-run reference (paper_sweep *is* the clean run): the
            # digest must at least agree between sessions sharing a key.
            if digests.setdefault(key, record.digest) != record.digest:
                record.failed = f"oracle: two sessions of {key} produced different trees"
            else:
                workload.oracle_exact += 1
    if golden_status == "checked":
        for key, digest in sorted(digests.items()):
            want = golden["digests"].get(key)
            if want is None:
                problems.append(f"golden.json has no digest for {key}")
            elif want != digest:
                problems.append(f"golden digest drift for {key}: {digest[:12]} != {want[:12]}")
    for extra in workload.checks:
        problems.extend(extra())
    return digests, problems, golden_status
