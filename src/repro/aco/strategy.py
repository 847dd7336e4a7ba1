"""Pheromone-update strategies: Ant System vs. MAX-MIN Ant System.

The paper's search (Section IV-A) is an Ant Colony System flavour of the
classic Ant System: every iteration the whole table decays and the
*iteration winner* deposits. MAX-MIN Ant System (Stuetzle & Hoos; the GPU
implementation studied by Skinderowicz, see PAPERS.md) hardens that rule
set against premature convergence on hostile inputs:

* **best-only deposit** — only the *best-so-far* tour reinforces its
  links, never the iteration winner;
* **pheromone clamping** — every entry is kept inside ``[tau_min,
  tau_max]`` where ``tau_max`` is the fixed point of repeatedly
  depositing the best tour under decay (``deposit_amount / (1 -
  decay)``) and ``tau_min`` is a region-size-scaled fraction of it;
* **stagnation-triggered reinitialization** — after a run of
  non-improving iterations the whole table resets to ``tau_max``,
  restarting exploration instead of grinding on a saturated table.

Both strategies are pure pheromone-table policies: ant construction never
changes, so backend bit-identity (``tests/test_differential.py``) holds
for every strategy by construction — the vectorized and loop engines read
the same ``tau`` trajectory. The strategy also owns the stagnation limit
(MMAS needs patience for its reinitializations to matter; the paper's
1/2/3 conditions stop far too early for a restart to ever fire).

A strategy instance is created per pass and holds no state beyond its
parameters — ``tau_max``/``tau_min`` derive from the best-so-far cost,
which the resilience checkpoints already carry, so a resumed MMAS pass
recomputes identical bounds without new checkpoint fields.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

from ..config import ACOParams, STRATEGY_NAMES
from ..errors import ConfigError
from .pheromone import PheromoneTable


class AntSystemStrategy:
    """The paper's rule set: decay + iteration-winner deposit.

    Bit-identical to the historical inline update (this class only names
    the existing behaviour so MMAS can slot in beside it).
    """

    name = "as"

    def __init__(self, params: ACOParams, num_instructions: int):
        self.params = params
        self.num_instructions = num_instructions

    def stagnation_limit(self, base: int) -> int:
        """The paper's termination condition, unchanged."""
        return base

    def update(
        self,
        pheromone: PheromoneTable,
        winner_order: Sequence[int],
        winner_gap: float,
        best_order: Sequence[int],
        best_gap: float,
        without_improvement: int,
    ) -> bool:
        """End-of-iteration table update; returns True on reinitialization."""
        pheromone.decay()
        pheromone.deposit(winner_order, winner_gap)
        return False

    def update_no_winner(
        self,
        pheromone: PheromoneTable,
        best_order: Sequence[int],
        best_gap: float,
        without_improvement: int,
    ) -> bool:
        """Every ant died (pass 2): decay alone reshapes the search."""
        pheromone.decay()
        return False


class MaxMinAntSystem(AntSystemStrategy):
    """MAX-MIN Ant System: clamped, best-only, restart-on-stagnation."""

    name = "mmas"

    def tau_max(self, best_gap: float) -> float:
        """Fixed point of decaying + depositing the best tour forever.

        ``x = x * decay + amount`` converges to ``amount / (1 - decay)``
        with ``amount`` the deposit rule's share for the best tour.
        """
        amount = self.params.deposit / (1.0 + max(0.0, float(best_gap)))
        return amount / (1.0 - self.params.decay)

    def tau_min(self, tau_max: float) -> float:
        """Region-size-scaled floor: ``tau_max / (scale * n)``."""
        return tau_max / (self.params.mmas_tau_min_scale * self.num_instructions)

    def bounds(self, best_gap: float) -> Tuple[float, float]:
        """The current ``(tau_min, tau_max)`` clamp interval."""
        hi = self.tau_max(best_gap)
        return self.tau_min(hi), hi

    def stagnation_limit(self, base: int) -> int:
        """Stretch the paper's condition so restarts can fire at all."""
        return base * self.params.mmas_patience

    def _should_reinitialize(self, without_improvement: int) -> bool:
        period = self.params.mmas_reinit_stagnation
        return without_improvement > 0 and without_improvement % period == 0

    def update(
        self,
        pheromone: PheromoneTable,
        winner_order: Sequence[int],
        winner_gap: float,
        best_order: Sequence[int],
        best_gap: float,
        without_improvement: int,
    ) -> bool:
        lo, hi = self.bounds(best_gap)
        if self._should_reinitialize(without_improvement):
            pheromone.reinitialize(hi)
            return True
        pheromone.evaporate()
        pheromone.deposit(best_order, best_gap, cap=hi)
        pheromone.clamp(lo, hi)
        return False

    def update_no_winner(
        self,
        pheromone: PheromoneTable,
        best_order: Sequence[int],
        best_gap: float,
        without_improvement: int,
    ) -> bool:
        # The best-so-far tour still exists (the pass-start incumbent), so
        # the best-only deposit rule applies unchanged.
        return self.update(
            pheromone,
            winner_order=best_order,
            winner_gap=best_gap,
            best_order=best_order,
            best_gap=best_gap,
            without_improvement=without_improvement,
        )


#: Public strategy name -> strategy class.
STRATEGIES: Dict[str, Type[AntSystemStrategy]] = {
    AntSystemStrategy.name: AntSystemStrategy,
    MaxMinAntSystem.name: MaxMinAntSystem,
}

assert tuple(sorted(STRATEGIES)) == tuple(sorted(STRATEGY_NAMES))


def resolve_strategy(name: str) -> Type[AntSystemStrategy]:
    """Map a strategy name to its class (``ConfigError`` if unknown)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            "unknown strategy %r (choose from %s)"
            % (name, ", ".join(sorted(STRATEGIES)))
        ) from None


def make_strategy(params: ACOParams, num_instructions: int) -> AntSystemStrategy:
    """Instantiate ``params.strategy`` for one pass on one region.

    ``params.validate`` has already checked the name and, for MMAS, that
    ``decay < 1``.
    """
    return resolve_strategy(params.strategy)(params, num_instructions)


def publish_reinit(
    telemetry, region: str, pass_index: int, iteration: int, tau_max: float
) -> None:
    """Emit the ``reinit`` event for one restart.

    Shared by both schedulers so the observability stack sees one shape.
    """
    telemetry.emit(
        "reinit",
        region=region,
        pass_index=int(pass_index),
        iteration=int(iteration),
        tau_max=float(tau_max),
    )


__all__ = [
    "STRATEGIES",
    "AntSystemStrategy",
    "MaxMinAntSystem",
    "make_strategy",
    "publish_reinit",
    "resolve_strategy",
]
