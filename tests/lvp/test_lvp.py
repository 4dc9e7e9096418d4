"""Load value prediction with tag-match invalid lines (paper §3)."""

from repro.common.config import LVPConfig
from repro.common.stats import StatsRegistry
from repro.coherence.states import LineState
from repro.lvp.unit import LVPUnit
from repro.memory.cache import CacheLine
from tests.harness import MemHarness

ADDR = 0x10000


def lvp_harness(base_config, **proto):
    cfg = base_config.with_lvp(enabled=True)
    if proto:
        cfg = cfg.with_protocol(**proto)
    return MemHarness(cfg)


class TestCandidateSelection:
    def make_line(self, state, value=5):
        line = CacheLine(8)
        line.base = 0
        line.state = state
        line.data[2] = value
        return line

    def test_disabled_returns_none(self):
        unit = LVPUnit(LVPConfig(enabled=False), StatsRegistry().scoped("x"))
        assert unit.candidate(self.make_line(LineState.I), 2) is None

    def test_invalid_with_data_predicts(self):
        unit = LVPUnit(LVPConfig(enabled=True), StatsRegistry().scoped("x"))
        assert unit.candidate(self.make_line(LineState.I), 2) == 5

    def test_t_state_predicts_when_allowed(self):
        unit = LVPUnit(LVPConfig(enabled=True), StatsRegistry().scoped("x"))
        assert unit.candidate(self.make_line(LineState.T), 2) == 5
        unit2 = LVPUnit(
            LVPConfig(enabled=True, predict_in_t_state=False),
            StatsRegistry().scoped("x"),
        )
        assert unit2.candidate(self.make_line(LineState.T), 2) is None

    def test_valid_states_do_not_predict(self):
        unit = LVPUnit(LVPConfig(enabled=True), StatsRegistry().scoped("x"))
        for state in (LineState.S, LineState.M, LineState.E, LineState.O):
            assert unit.candidate(self.make_line(state), 2) is None

    def test_no_line_no_prediction(self):
        unit = LVPUnit(LVPConfig(enabled=True), StatsRegistry().scoped("x"))
        assert unit.candidate(None, 0) is None


class TestEndToEnd:
    def test_correct_prediction_verifies(self, tiny_config):
        h = lvp_harness(tiny_config)
        h.store(0, ADDR, 5)
        h.load(1, ADDR)  # P1 caches 5
        h.store(0, ADDR, 5 + 0)  # silent store... still invalidates? no
        # Make P1's copy invalid while keeping the value: P0 upgrades
        # writing the same value non-silently is impossible, so write a
        # new value then revert via plain stores (no MESTI here: the
        # line in P1 is plain I with data residue).
        h.store(0, ADDR, 6)
        h.store(0, ADDR, 5)
        kind, value, op = h.load(1, ADDR)
        assert kind == "spec"
        assert value == 5
        h.drain()
        assert op.verified and not op.squashed
        assert h.stats["node1.lvp.correct"] == 1

    def test_wrong_prediction_squashes(self, tiny_config):
        h = lvp_harness(tiny_config)
        h.store(0, ADDR, 5)
        h.load(1, ADDR)
        h.store(0, ADDR, 6)  # P1 invalid, residue 5, real value 6
        kind, value, op = h.load(1, ADDR)
        assert kind == "spec" and value == 5
        h.drain()
        assert op.squashed
        assert h.stats["node1.lvp.mispredictions"] == 1

    def test_false_sharing_capture(self, tiny_config):
        """Untouched-word changes must not squash the prediction (§3.2)."""
        h = lvp_harness(tiny_config)
        h.store(0, ADDR, 5)  # word 0
        h.load(1, ADDR)
        h.store(0, ADDR + 8, 99)  # P0 writes a DIFFERENT word
        kind, value, op = h.load(1, ADDR)  # P1 rereads word 0
        assert kind == "spec" and value == 5
        h.drain()
        assert op.verified  # word 0 unchanged: prediction stands

    def test_prediction_from_t_state_under_mesti(self, mesti_config):
        h = lvp_harness(mesti_config)
        h.store(0, ADDR, 0)
        h.load(1, ADDR)
        h.store(0, ADDR, 1)  # P1 -> T(0)
        assert h.line_state(1, ADDR) is LineState.T
        h.store(0, ADDR, 0)  # reverts; validate may also fly
        kind, value, op = h.load(1, ADDR)
        # Either the validate already re-installed the line (hit) or
        # LVP predicts from T; both deliver 0.
        assert value == 0

    def test_no_prediction_without_residue(self, tiny_config):
        h = lvp_harness(tiny_config)
        kind, value, _ = h.load(1, ADDR)
        assert kind == "miss"  # cold: nothing to predict from

    def test_multiple_spec_loads_one_mshr(self, tiny_config):
        h = lvp_harness(tiny_config)
        h.store(0, ADDR, 5)
        h.store(0, ADDR + 8, 7)
        h.load(1, ADDR)
        h.store(0, ADDR + 16, 1)  # invalidate P1 via a third word
        op_a = h.new_op()
        kind_a, _, _ = h.nodes[1].load(ADDR, op_a)
        op_b = h.new_op()
        kind_b, _, _ = h.nodes[1].load(ADDR + 8, op_b)
        assert kind_a == "spec" and kind_b == "spec"
        h.drain()
        assert op_a.verified and op_b.verified

    def test_squash_targets_oldest_attached_op(self, tiny_config):
        h = lvp_harness(tiny_config)
        h.store(0, ADDR, 5)
        h.store(0, ADDR + 8, 7)
        h.load(1, ADDR)
        h.store(0, ADDR + 8, 8)  # word 1 will mispredict
        op_a = h.new_op()  # older, predicts word 0 (correct)
        h.nodes[1].load(ADDR, op_a)
        op_b = h.new_op()  # younger, predicts word 1 (wrong)
        h.nodes[1].load(ADDR + 8, op_b)
        h.drain()
        # The paper's single-index recovery squashes at the OLDEST
        # speculative op attached to the MSHR, even though only the
        # younger one mismatched.
        assert op_a.squashed
        assert not op_b.squashed  # only one squash callback is made
