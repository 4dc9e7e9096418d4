"""Enhanced MESTI: Validate_Shared, useful snoop response, predictor (§2.3–2.4)."""

import pytest

from repro.coherence.states import LineState
from tests.harness import MemHarness

ADDR = 0x10000


@pytest.fixture
def h(emesti_config):
    return MemHarness(emesti_config)


def make_ts_episode(h, owner=0, sharer=1, addr=ADDR):
    """Owner establishes visible 0, sharer caches it, owner writes 1 then 0."""
    h.store(owner, addr, 0)
    h.load(sharer, addr)
    h.store(owner, addr, 1)
    h.store(owner, addr, 0)
    h.drain()


def train_then_episode(h, owner=0, sharer=1, addr=ADDR):
    """Raise the line's confidence past the threshold, then run a TS
    episode whose validate is actually broadcast.

    With the paper's 3-4-1-1-7 tuning a cold line starts *below* the
    threshold, so the first detection suppresses; an external request
    during the temporally-silent episode (the remote's miss) trains
    confidence up by one, after which validates flow.
    """
    make_ts_episode(h, owner, sharer, addr)  # detection, suppressed (conf 3)
    h.load(sharer, addr)  # external request while TS-detected: conf -> 4
    h.store(owner, addr, 1)
    h.store(owner, addr, 0)  # detection, conf 4 >= threshold: validate
    h.drain()


class TestValidateShared:
    def test_cold_line_suppresses_first_validate(self, h):
        make_ts_episode(h)
        assert h.stats["bus.txn.validate"] == 0
        assert h.line_state(1, ADDR) is LineState.T

    def test_validate_installs_vs_not_s(self, h):
        train_then_episode(h)
        assert h.line_state(1, ADDR) is LineState.VS

    def test_local_access_demotes_vs_to_s(self, h):
        train_then_episode(h)
        kind, value, _ = h.load(1, ADDR)
        assert kind == "hit" and value == 0
        assert h.line_state(1, ADDR) is LineState.S

    def test_vs_withholds_shared_on_upgrade(self, h):
        """The useful snoop response: untouched VS looks un-shared."""
        train_then_episode(h)
        # P0 (in O after validating) upgrades for the next store: the
        # only remote copy is VS and must NOT assert shared.
        h.store(0, ADDR, 2)
        # The predictor saw "useless": decremented confidence.
        assert h.stats["ctrl0.predictor.useless_by_snoop_response"] == 1

    def test_consumed_vs_asserts_shared(self, h):
        train_then_episode(h)
        h.load(1, ADDR)  # demotes VS -> S: the validate was useful
        h.store(0, ADDR, 2)
        assert h.stats["ctrl0.predictor.useful_by_snoop_response"] == 1

    def test_vs_line_enters_t_on_invalidate(self, h):
        train_then_episode(h)
        h.store(0, ADDR, 2)  # upgrade invalidates the VS copy
        assert h.line_state(1, ADDR) is LineState.T


class TestUsefulValidatePredictor:
    def test_initial_confidence_sends_validates(self, h):
        # 3-4-1-1-7 tuning: initial 3 < threshold 4... the FIRST
        # detection reads confidence 3 and suppresses.
        make_ts_episode(h)
        # With initial confidence 3 below threshold 4, plain E-MESTI
        # suppresses until usefulness is observed.
        assert h.stats["ctrl0.predictor.ts_detects"] >= 1

    def test_external_request_trains_up(self, h):
        h.store(0, ADDR, 0)
        h.load(1, ADDR)
        for _ in range(3):
            # TS episodes where the remote genuinely misses afterwards.
            h.store(0, ADDR, 1)
            h.store(0, ADDR, 0)
            h.drain()
            h.load(1, ADDR)  # external request (or hit once validated)
        # Confidence must have risen to/above threshold and validates flow.
        line = h.controllers[0].lookup(ADDR)
        assert line.pred_conf >= 4 or h.stats["bus.txn.validate"] >= 1

    def test_useless_validates_eventually_suppressed(self, h):
        """The specjbb scenario: nobody consumes the validated data."""
        h.store(0, ADDR, 0)
        h.load(1, ADDR)  # one remote copy exists, then never touched again
        sent = []
        for i in range(12):
            h.store(0, ADDR, 1)
            h.store(0, ADDR, 0)
            h.drain()
            sent.append(h.stats["bus.txn.validate"])
        # Validates stop growing once the predictor learns.
        assert sent[-1] == sent[-2] == sent[-3]
        assert h.stats["ctrl0.predictor.validates_suppressed"] > 0

    def test_predictor_storage_lives_in_l2_tags(self, h):
        h.store(0, ADDR, 0)
        line = h.controllers[0].lookup(ADDR)
        assert hasattr(line, "pred_conf") and hasattr(line, "pred_state")
        assert line.pred_conf == 3  # initial confidence


class TestSnoopAwarePolicy:
    @pytest.fixture
    def hs(self, mesti_config):
        from repro.common.config import ValidatePolicy

        cfg = mesti_config.with_protocol(validate_policy=ValidatePolicy.SNOOP_AWARE)
        return MemHarness(cfg)

    def test_validate_sent_when_remote_copies_existed(self, hs):
        make_ts_episode(hs)
        assert hs.stats["bus.txn.validate"] == 1
        assert hs.line_state(1, ADDR) is LineState.S  # plain MESTI re-install

    def test_validate_aborted_when_no_remote_copy(self, hs):
        # P0 alone: the upgrade/readx collects no shared response.
        hs.store(0, ADDR, 0)
        hs.store(0, ADDR, 1)
        hs.store(0, ADDR, 0)
        hs.drain()
        assert hs.stats["bus.txn.validate"] == 0

    def test_no_opportunity_lost(self, hs):
        """Snoop-aware never suppresses a validate that could help."""
        make_ts_episode(hs)  # remote existed -> validate sent
        kind, _, _ = hs.load(1, ADDR)
        assert kind == "hit"
