"""The public home of :class:`Result` (defined in :mod:`repro.distributed.result`)."""

from ..distributed.result import Result

__all__ = ["Result"]
