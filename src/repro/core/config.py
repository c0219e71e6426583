"""Engine configuration and optimization levels.

The paper's ablation (Fig. 9) compares four configurations of the same
engine:

* ``gStoreD-Basic`` — partial evaluation + the ungrouped join of [18];
* ``gStoreD-LA``    — + LEC feature-based assembly (Algorithm 3);
* ``gStoreD-LO``    — + LEC feature-based pruning (Algorithms 1-2);
* ``gStoreD``       — + assembling variables' internal candidates (Algorithm 4).

:class:`EngineConfig` captures the three independent switches plus a couple
of knobs (bit-vector width, star-query shortcut) and provides named
constructors for the four paper configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict

from ..planner.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from .candidate_exchange import DEFAULT_BIT_VECTOR_BITS


class OptimizationLevel(str, Enum):
    """The four configurations evaluated in the paper's Fig. 9."""

    BASIC = "basic"
    LA = "la"
    LO = "lo"
    FULL = "full"


@dataclass(frozen=True)
class EngineConfig:
    """Switches controlling which of the paper's optimizations are active."""

    #: Use the LEC feature-based assembly (Algorithm 3) instead of the
    #: ungrouped join of [18].
    use_lec_assembly: bool = True
    #: Run LEC feature-based pruning (Algorithms 1-2) before assembly.
    use_lec_pruning: bool = True
    #: Run the candidate bit-vector exchange (Algorithm 4) before partial
    #: evaluation.
    use_candidate_exchange: bool = True
    #: Evaluate star queries purely locally (the paper's observation that
    #: every result of a star query lies within a single fragment).
    star_shortcut: bool = True
    #: Width of the candidate bit vectors, in bits.
    bit_vector_bits: int = DEFAULT_BIT_VECTOR_BITS
    #: Re-validate every enumerated local partial match against Definition 5
    #: (slow; meant for tests and debugging).
    paranoid_validation: bool = False
    #: Use the statistics-driven cost-based planner (:mod:`repro.planner`)
    #: to order local matching and partial evaluation.  Orthogonal to the
    #: paper's three optimizations: it changes how the search space is
    #: walked, never which results exist, so it is on at every level (and in
    #: particular in :meth:`full`).
    use_planner: bool = True
    #: Maximum number of cached plans per planner (coordinator and sites).
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: Site tasks per site of the star-shortcut local evaluation.  Always 1:
    #: a site evaluates its fragment in one task; any other value raises.
    shards_per_site: int = 1

    def __post_init__(self) -> None:
        bits = self.bit_vector_bits
        if isinstance(bits, bool) or not isinstance(bits, int) or bits < 1:
            raise ValueError(f"bit_vector_bits must be a positive integer, got {bits!r}")
        if self.shards_per_site != 1:
            raise ValueError(f"shards_per_site must be 1, got {self.shards_per_site!r}")

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    @classmethod
    def basic(cls) -> "EngineConfig":
        return cls(use_lec_assembly=False, use_lec_pruning=False, use_candidate_exchange=False)

    @classmethod
    def lec_assembly_only(cls) -> "EngineConfig":
        return cls(use_lec_assembly=True, use_lec_pruning=False, use_candidate_exchange=False)

    @classmethod
    def lec_optimized(cls) -> "EngineConfig":
        return cls(use_lec_assembly=True, use_lec_pruning=True, use_candidate_exchange=False)

    @classmethod
    def full(cls) -> "EngineConfig":
        return cls(use_lec_assembly=True, use_lec_pruning=True, use_candidate_exchange=True)

    @classmethod
    def for_level(cls, level: OptimizationLevel) -> "EngineConfig":
        factories = {
            OptimizationLevel.BASIC: cls.basic,
            OptimizationLevel.LA: cls.lec_assembly_only,
            OptimizationLevel.LO: cls.lec_optimized,
            OptimizationLevel.FULL: cls.full,
        }
        return factories[level]()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def level(self) -> OptimizationLevel:
        """The closest named level for reporting purposes."""
        if self.use_candidate_exchange and self.use_lec_pruning and self.use_lec_assembly:
            return OptimizationLevel.FULL
        if self.use_lec_pruning and self.use_lec_assembly:
            return OptimizationLevel.LO
        if self.use_lec_assembly:
            return OptimizationLevel.LA
        return OptimizationLevel.BASIC

    @property
    def label(self) -> str:
        """The gStoreD-style label used in the paper's figures."""
        return {
            OptimizationLevel.BASIC: "gStoreD-Basic",
            OptimizationLevel.LA: "gStoreD-LA",
            OptimizationLevel.LO: "gStoreD-LO",
            OptimizationLevel.FULL: "gStoreD",
        }[self.level]

    def with_options(self, **changes) -> "EngineConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "lec_assembly": self.use_lec_assembly,
            "lec_pruning": self.use_lec_pruning,
            "candidate_exchange": self.use_candidate_exchange,
            "star_shortcut": self.star_shortcut,
            "bit_vector_bits": self.bit_vector_bits,
            "planner": self.use_planner,
            "plan_cache_size": self.plan_cache_size,
        }


#: All four paper configurations, in the order Fig. 9 plots them.
ABLATION_CONFIGS = (
    EngineConfig.basic(),
    EngineConfig.lec_assembly_only(),
    EngineConfig.lec_optimized(),
    EngineConfig.full(),
)
