"""Validate broadcast policies (§2.2–§2.4).

Each detected temporal silence asks the policy whether to broadcast a
validate.  Broadcasting can eliminate remote communication misses but
forfeits exclusivity (the next non-silent store needs an upgrade) and
adds address traffic; *useless validates* were shown to add 10–100%
address transactions, hence the smarter policies.
"""

from __future__ import annotations

from repro.common.config import PredictorConfig, ValidatePolicy
from repro.common.errors import ConfigError
from repro.common.stats import ScopedStats
from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.predictor import UsefulValidatePredictor
from repro.memory.cache import CacheLine
from repro.obs.tracer import NULL_TRACER


class ValidatePolicyBase:
    """Decides, per detected temporal silence, whether to validate."""

    def should_validate(self, line: CacheLine, span: int | None = None) -> bool:
        """Decide whether this temporal silence broadcasts a validate.

        ``span`` is the validate-episode trace span, threaded through
        so predictor decisions are attributable to the episode.
        """
        raise NotImplementedError

    # Hooks the controller calls so policies can observe the system.

    def on_line_filled(self, line: CacheLine) -> None:
        """A line was freshly allocated in the L2."""

    def on_invalidating_response(self, line: CacheLine, result: SnoopResult) -> None:
        """Our ReadX/Upgrade for ``line`` completed with ``result``."""

    def on_external_request(self, line: CacheLine, kind: TxnKind) -> None:
        """A remote transaction touched our line."""

    def on_intermediate_store(self, line: CacheLine, needs_upgrade: bool) -> None:
        """A local non-update-silent store hit the line."""

    def on_upgrade_response(self, line: CacheLine, useful: bool) -> None:
        """Snoop responses for our intermediate-value-store upgrade."""


class AlwaysValidate(ValidatePolicyBase):
    """Broadcast a validate for every detected temporal silence."""

    def should_validate(self, line: CacheLine, span: int | None = None) -> bool:
        """Decide whether this temporal silence broadcasts a validate."""
        return True


class SnoopAwareValidate(ValidatePolicyBase):
    """The snoop-aware validate policy (§2.3, from [22]).

    At each ReadX/Upgrade the requester collects the shared snoop
    response; if no remote node held a valid copy at the intermediate
    value store, no cache can be in T state, so any validate is
    provably useless and is aborted.  No opportunity is sacrificed.
    """

    def should_validate(self, line: CacheLine, span: int | None = None) -> bool:
        """Decide whether this temporal silence broadcasts a validate."""
        return not line.validate_suppressed

    def on_invalidating_response(self, line: CacheLine, result: SnoopResult) -> None:
        """Record the snoop responses of our ReadX/Upgrade."""
        line.validate_suppressed = not result.shared


class PredictorValidate(ValidatePolicyBase):
    """Confidence-predicted validates (§2.4), requires Enhanced MESTI."""

    def __init__(
        self,
        config: PredictorConfig,
        stats: ScopedStats,
        tracer=NULL_TRACER,
        node_id: int = 0,
    ):
        self.predictor = UsefulValidatePredictor(
            config, stats, tracer=tracer, node_id=node_id
        )

    def should_validate(self, line: CacheLine, span: int | None = None) -> bool:
        """Decide whether this temporal silence broadcasts a validate."""
        return self.predictor.on_ts_detect(line, span=span)

    def on_line_filled(self, line: CacheLine) -> None:
        """Initialize per-line predictor state on a fresh fill."""
        self.predictor.init_line(line)

    def on_external_request(self, line: CacheLine, kind: TxnKind) -> None:
        """Train on a remote request touching our line."""
        self.predictor.on_external_request(line)

    def on_intermediate_store(self, line: CacheLine, needs_upgrade: bool) -> None:
        """Track a local non-update-silent store."""
        if needs_upgrade:
            self.predictor.on_intermediate_store_upgrade(line)
        else:
            self.predictor.on_intermediate_store_exclusive(line)

    def on_upgrade_response(self, line: CacheLine, useful: bool) -> None:
        """Train on the useful snoop response of our upgrade."""
        self.predictor.on_upgrade_response(line, useful)


def make_validate_policy(
    policy: ValidatePolicy,
    predictor_config: PredictorConfig,
    stats: ScopedStats,
    tracer=NULL_TRACER,
    node_id: int = 0,
) -> ValidatePolicyBase:
    """Build the policy object selected by the configuration."""
    if policy is ValidatePolicy.ALWAYS:
        return AlwaysValidate()
    if policy is ValidatePolicy.SNOOP_AWARE:
        return SnoopAwareValidate()
    if policy is ValidatePolicy.PREDICTOR:
        return PredictorValidate(predictor_config, stats, tracer, node_id)
    raise ConfigError(f"unknown validate policy {policy}")
