"""Tests for the aggregate field-role declarations used by adaptation."""

from repro.core import PlugSet, Replicated, SafePointAfter, plug


class TestFieldRoles:
    def test_replicated_and_local_markers_weave(self):
        """``Replicated`` is declared; a field no template names is local
        to each member."""

        class Obj:
            def step(self):
                pass

        W = plug(Obj, PlugSet(Replicated("a"), SafePointAfter("step")))
        plugs = W.__pp_plugs__
        assert [t.field for t in plugs.of_type(Replicated)] == ["a"]
        assert plugs.partitioned_fields() == {}
        assert plugs.safedata_fields() == []
