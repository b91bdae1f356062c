"""The machine and software a run measured, recorded beside its numbers.

The BLAS thread variables are read, never set: oversubscribed OpenBLAS
threads change the cluster workloads several-fold, so the inherited
values are part of what a number means.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Dict

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> str:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (stands in for the sha
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        **{name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
    }
