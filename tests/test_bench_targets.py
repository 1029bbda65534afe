"""Every function and method the benchmark's traced pass wraps must exist:
a target that no longer resolves silently reads 0 in the per-layer metrics."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_traced_target_resolves():
    unresolved = []
    for owner_name, attr, _, _ in spans.TARGETS:
        owner = spans._resolve(owner_name)
        if owner is None or not callable(getattr(owner, attr, None)):
            unresolved.append(f"{owner_name}.{attr}")
    assert unresolved == []
    with spans.Tracer("targets") as tracer:
        pass
    assert tracer.absent == []
