"""Validate-policy objects in isolation."""

from repro.common.config import PredictorConfig, ValidatePolicy
from repro.common.stats import StatsRegistry
from repro.coherence.messages import SnoopResult
from repro.coherence.policies import (
    AlwaysValidate,
    PredictorValidate,
    SnoopAwareValidate,
    make_validate_policy,
)
from repro.memory.cache import CacheLine


def line():
    out = CacheLine(8)
    out.base = 0
    return out


def test_factory_dispatch():
    stats = StatsRegistry().scoped("p")
    assert isinstance(
        make_validate_policy(ValidatePolicy.ALWAYS, PredictorConfig(), stats),
        AlwaysValidate,
    )
    assert isinstance(
        make_validate_policy(ValidatePolicy.SNOOP_AWARE, PredictorConfig(), stats),
        SnoopAwareValidate,
    )
    assert isinstance(
        make_validate_policy(ValidatePolicy.PREDICTOR, PredictorConfig(), stats),
        PredictorValidate,
    )


def test_always_policy():
    policy = AlwaysValidate()
    assert policy.should_validate(line())


class TestSnoopAware:
    def test_suppresses_after_unshared_response(self):
        policy = SnoopAwareValidate()
        l = line()
        policy.on_invalidating_response(l, SnoopResult(shared=False))
        assert not policy.should_validate(l)

    def test_reenabled_by_shared_response(self):
        policy = SnoopAwareValidate()
        l = line()
        policy.on_invalidating_response(l, SnoopResult(shared=False))
        policy.on_invalidating_response(l, SnoopResult(shared=True))
        assert policy.should_validate(l)

    def test_default_is_validate(self):
        assert SnoopAwareValidate().should_validate(line())


class TestPredictorPolicy:
    def make(self, **kw):
        return PredictorValidate(
            PredictorConfig(**kw), StatsRegistry().scoped("p")
        )

    def test_cold_line_uses_initial_confidence(self):
        policy = self.make(initial_confidence=4, threshold=4)
        l = line()
        policy.on_line_filled(l)
        assert policy.should_validate(l)
        low = self.make(initial_confidence=3, threshold=4)
        l2 = line()
        low.on_line_filled(l2)
        assert not low.should_validate(l2)

    def test_upgrade_response_trains(self):
        policy = self.make(initial_confidence=4, threshold=4)
        l = line()
        policy.on_line_filled(l)
        policy.should_validate(l)  # TS detect -> sent
        policy.on_intermediate_store(l, needs_upgrade=True)
        policy.on_upgrade_response(l, useful=False)
        assert l.pred_conf == 3
        assert not policy.should_validate(l)

    def test_external_request_recovers(self):
        policy = self.make(initial_confidence=3, threshold=4)
        l = line()
        policy.on_line_filled(l)
        policy.should_validate(l)  # suppressed, TS_DETECTED
        policy.on_external_request(l, None)
        assert l.pred_conf == 4
        assert policy.should_validate(l)

    def test_exclusive_intermediate_store_resets_state(self):
        from repro.memory.cache import PRED_START

        policy = self.make(initial_confidence=3, threshold=4)
        l = line()
        policy.on_line_filled(l)
        policy.should_validate(l)
        policy.on_intermediate_store(l, needs_upgrade=False)
        assert l.pred_state == PRED_START
