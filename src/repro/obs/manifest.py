"""Run manifests: what produced an experiment output, written beside it.

Every traced experiment run writes a small JSON manifest next to its
output so a result file is never orphaned from its provenance: the seed,
scale, K values, placement scheme and engine that produced it, the git
revision of the code, a hash of the full configuration, and wall-clock
seconds per phase.

Timing uses ``time.perf_counter`` (a monotonic interval clock, not a
wall-clock read): manifests record *how long* phases took, never *when*
they ran, so two runs of the same configuration produce manifests that
differ only in the timing section and the peak memory
(:func:`peak_rss_mb`) an experiment records.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

#: Bumped when the manifest layout changes shape.
MANIFEST_VERSION = 1


def current_git_sha() -> Optional[str]:
    """The repository HEAD revision, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set size (MB) of this process (``self``) and of its
    largest waited-for child process (``children``) so far; empty where
    the platform has no ``resource`` module."""
    try:
        import resource
    except ImportError:
        return {}
    # ru_maxrss counts bytes on macOS and KiB elsewhere.
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit,
    }


def config_fingerprint(config: Mapping[str, object]) -> str:
    """Stable SHA-256 over a canonical JSON rendering of ``config``."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_path_for(output_path: str) -> str:
    """Where the manifest of ``output_path`` lives (same directory)."""
    return output_path + ".manifest.json"


@dataclass
class RunManifest:
    """Provenance of one experiment run.

    ``config`` holds the full knob set (seed, scale, K values, placement
    scheme, engine, workload sizes, ...); ``config_hash`` is derived from
    it, so two manifests with equal hashes came from identical
    configurations.  ``phases`` maps phase name to wall-clock seconds.
    """

    experiment: str
    config: Dict[str, object] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    git_sha: Optional[str] = field(default_factory=current_git_sha)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase (monotonic interval, not wall clock)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + (
                time.perf_counter() - start
            )

    @property
    def config_hash(self) -> str:
        """SHA-256 fingerprint of the configuration."""
        return config_fingerprint(self.config)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable manifest body."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "experiment": self.experiment,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "config_hash": self.config_hash,
            "git_sha": self.git_sha,
            "phases_s": {k: self.phases[k] for k in sorted(self.phases)},
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }

    def write(self, path: str) -> str:
        """Write the manifest JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=False, default=str)
            fh.write("\n")
        return path

    @classmethod
    def read(cls, path: str) -> Dict[str, object]:
        """Load a manifest body previously written with :meth:`write`."""
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
