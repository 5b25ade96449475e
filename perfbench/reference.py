"""Reference outputs of every pool case, and the check against them.

``python3 perfbench/reference.py`` regenerates ``data/reference.json`` by
running each case once.  Regenerate only on purpose, on a commit whose outputs
are meant to become the new reference: the stored values are what the check
holds every later commit to.

The check is exact for everything the program writes as bytes or counts
(``.bacsched`` and ``--diff`` digests, the update mask, MAC counts,
``mac_speedup``, ``update_frac``) and holds every other number, final actions
and profile values included, to ``RTOL``: ``max|got - want| <= RTOL *
max|want|`` over each vector or scalar.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

RTOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "data", "reference.json")
_EXACT_SUFFIXES = ("sha", "mac_speedup", "update_frac", "budget", "flops_full",
                   "flops_cached", "speedup")


def _exact(key: str) -> bool:
    return key.endswith(_EXACT_SUFFIXES)


def compare(got, want, path: str = "") -> list[str]:
    """Mismatches between an observation and its reference, as messages."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}.{k}" if path else k)]
    if isinstance(want, str) or _exact(key):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    g = np.asarray(got, dtype=np.float64)
    w = np.asarray(want, dtype=np.float64)
    if g.shape != w.shape:
        return [f"{path}: shape {g.shape} != {w.shape}"]
    if not np.all(np.isfinite(g)):
        return [f"{path}: not finite"]
    gap = float(np.max(np.abs(g - w))) if w.size else 0.0
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    return [] if gap <= RTOL * scale else [f"{path}: gap {gap:.3e} > {RTOL:g} * {scale:.3e}"]


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def generate() -> dict:
    import workloads

    out: dict = {"rtol": RTOL}
    workdir = os.path.join(HERE, "out", "reference")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(os.path.join(workdir, name))
        wl.prepare()
        wl.setup()
        cases = []
        for case in range(wl.pool):
            _, observed = wl.op(case)
            extra = wl.check_phase(case)
            if extra is not None:
                observed["check"] = extra[1]
            cases.append(observed)
            print(f"{name} case {case} done", file=sys.stderr)
        out[name] = cases
    return out


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    data = generate()
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        items = list(data.items())
        for i, (key, value) in enumerate(items):
            sep = "," if i < len(items) - 1 else ""
            if isinstance(value, list):
                body = ",\n".join("    " + json.dumps(case, sort_keys=True) for case in value)
                fh.write(f'  "{key}": [\n{body}\n  ]{sep}\n')
            else:
                fh.write(f'  "{key}": {json.dumps(value)}{sep}\n')
        fh.write("}\n")
    print(f"wrote {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
