"""Opt-in per-stage ``cProfile`` capture.

A :class:`StageProfiler` wraps coordinator-side stage execution in a
``cProfile.Profile`` when — and only when — profiling was requested, either
explicitly (``repro.open(..., profile=True)``) or through the
``REPRO_PROFILE`` environment variable (``1``/``true``/``yes``/``on``
enable it, ``""``/``0``/``false``/``no``/``off`` leave it off, and any other
value raises ``ValueError``).  A disabled profiler's :meth:`capture` is a
no-op context manager, so the default path pays a single truthiness check.

Profiles accumulate per stage name across queries; :meth:`report` renders
one stage's aggregate as ``pstats`` text sorted by cumulative time, and
:meth:`reports` renders all of them.  Site tasks run in the coordinator's
process, so their work is captured too.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Environment variable that force-enables profiling for a process.
PROFILE_ENV = "REPRO_PROFILE"

_TRUTHY = ("1", "true", "yes", "on")
_FALSEY = ("", "0", "false", "no", "off")


def _env_enabled() -> bool:
    raw = os.environ.get(PROFILE_ENV, "")
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSEY:
        return False
    raise ValueError(
        f"{PROFILE_ENV}={raw!r} is not a switch; use one of "
        f"{', '.join(_TRUTHY)} (on) or {', '.join(_FALSEY[1:])} or empty (off)"
    )


class StageProfiler:
    """Collects per-stage ``cProfile`` data when enabled, else does nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._profiles: Dict[str, cProfile.Profile] = {}

    @classmethod
    def from_env(cls, explicit: Optional[bool] = None) -> Optional["StageProfiler"]:
        """Build a profiler from an explicit flag or ``REPRO_PROFILE``.

        Returns ``None`` when profiling is off either way, so callers can
        keep a plain ``profiler is not None`` fast path.
        """
        if explicit is None:
            explicit = _env_enabled()
        return cls(enabled=True) if explicit else None

    @contextmanager
    def capture(self, stage: str) -> Iterator[None]:
        """Profile the enclosed block under ``stage`` (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        with self._lock:
            profile = self._profiles.get(stage)
            if profile is None:
                profile = cProfile.Profile()
                self._profiles[stage] = profile
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    @property
    def stages(self) -> List[str]:
        """Stage names with captured data, in first-capture order."""
        with self._lock:
            return list(self._profiles)

    def report(self, stage: str, limit: int = 20) -> str:
        """One stage's aggregate profile as pstats text (cumulative sort)."""
        with self._lock:
            profile = self._profiles.get(stage)
        if profile is None:
            return f"(no profile captured for stage {stage!r})"
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(limit)
        return buffer.getvalue()

    def reports(self, limit: int = 20) -> str:
        """Every captured stage's report, concatenated with headers."""
        sections = []
        for stage in self.stages:
            sections.append(f"=== stage: {stage} ===\n{self.report(stage, limit)}")
        return "\n".join(sections) if sections else "(no profiles captured)"
