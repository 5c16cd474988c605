"""Tests for templates, PlugSet composition and the weaver."""

import numpy as np
import pytest

from repro.core import (
    AllGatherAfter,
    BarrierAfter,
    BarrierBefore,
    ExecConfig,
    ForMethod,
    GatherAfter,
    HaloExchangeBefore,
    IgnorableMethod,
    ParallelMethod,
    Partitioned,
    PlugSet,
    SafeData,
    SafePointAfter,
    ScatterBefore,
    SingleMethod,
    WeaveError,
    is_woven,
    make_context,
    plug,
    unplug,
)
from repro.dsm.partition import BlockLayout


class Toy:
    """A minimal domain class for weaving tests."""

    def __init__(self, n=16):
        self.n = n
        self.data = np.zeros(n)
        self.hits = 0

    def work(self, lo, hi):
        self.data[lo:hi] += 1.0

    def bump(self):
        self.hits += 1

    def step(self):
        pass


class TestPlugSet:
    def test_composition_order_preserved(self):
        a = PlugSet(ParallelMethod("work"), name="a")
        b = PlugSet(SafeData("data"), name="b")
        c = a + b
        assert len(c) == 2
        assert c.name == "a+b"

    def test_of_type_and_for_method(self):
        ps = PlugSet(ForMethod("work"), BarrierAfter("work"),
                     SafePointAfter("step"))
        assert len(ps.of_type(ForMethod)) == 1
        hits = ps.for_method("work")
        # sorted by order: ForMethod(40) before BarrierAfter(60)
        assert [type(t).__name__ for t in hits] == ["ForMethod", "BarrierAfter"]

    def test_methods_deduplicated(self):
        ps = PlugSet(ForMethod("work"), BarrierAfter("work"))
        assert ps.methods() == ["work"]

    def test_safedata_fields_union(self):
        ps = PlugSet(SafeData("a", "b"), SafeData("b", "c"))
        assert ps.safedata_fields() == ["a", "b", "c"]

    def test_partitioned_twice_rejected(self):
        ps = PlugSet(Partitioned("x", BlockLayout()),
                     Partitioned("x", BlockLayout()))
        with pytest.raises(WeaveError):
            ps.partitioned_fields()

    def test_non_template_rejected(self):
        with pytest.raises(WeaveError):
            PlugSet("not a template")

    def test_safedata_requires_fields(self):
        with pytest.raises(ValueError):
            SafeData()

    def test_iterable_flattening(self):
        ps = PlugSet([ForMethod("work"), BarrierAfter("work")])
        assert len(ps) == 2


class TestWeaver:
    def test_plug_creates_subclass(self):
        W = plug(Toy, PlugSet(ForMethod("work")))
        assert issubclass(W, Toy)
        assert W is not Toy
        assert is_woven(W)
        assert not is_woven(Toy)

    def test_unplug_returns_base(self):
        W = plug(Toy, PlugSet(ForMethod("work")))
        assert unplug(W) is Toy

    def test_unplug_non_woven_rejected(self):
        with pytest.raises(WeaveError):
            unplug(Toy)

    def test_double_weave_rejected(self):
        W = plug(Toy, PlugSet(ForMethod("work")))
        with pytest.raises(WeaveError):
            plug(W, PlugSet(BarrierAfter("work")))

    def test_missing_join_point_rejected(self):
        with pytest.raises(WeaveError, match="does not exist"):
            plug(Toy, PlugSet(ForMethod("no_such_method")))

    def test_duplicate_formethod_rejected(self):
        with pytest.raises(WeaveError, match="more than once"):
            plug(Toy, PlugSet(ForMethod("work"), ForMethod("work")))

    def test_base_class_untouched(self):
        before = dict(Toy.__dict__)
        W = plug(Toy, PlugSet(ForMethod("work"), SingleMethod("bump"),
                              BarrierAfter("step")))
        assert dict(Toy.__dict__) == before
        assert not is_woven(Toy)
        assert {"work", "bump", "step"} <= set(W.__dict__)

    def test_woven_without_context_behaves_like_base(self):
        """The pluggability guarantee: no context -> strict sequential."""
        W = plug(Toy, PlugSet(ForMethod("work"), BarrierAfter("work"),
                              SingleMethod("bump"),
                              IgnorableMethod("step")))
        t_plain, t_woven = Toy(), W()
        t_plain.work(0, 16)
        t_woven.work(0, 16)
        np.testing.assert_array_equal(t_plain.data, t_woven.data)
        t_woven.bump()
        t_woven.bump()
        assert t_woven.hits == 2  # no context: a single runs every call
        assert t_woven.step() is None


class _Recorder:
    """A fake execution context that records every advice hook call."""

    def __init__(self, calls):
        self.calls = calls

    def barrier(self):
        self.calls.append(("barrier",))

    def on_safepoint(self):
        self.calls.append(("on_safepoint",))

    def __getattr__(self, hook):  # the four field movements
        if not hook.endswith("_field"):
            raise AttributeError(hook)
        return lambda field: self.calls.append((hook, field))


class Stepper:
    def __init__(self):
        self.calls = []

    def step(self, x, scale=1):
        self.calls.append(("step", x))
        return x * scale


#: every advice template: (template, runs before the method?, hook call)
ADVICE = [
    (BarrierBefore("step"), True, ("barrier",)),
    (BarrierAfter("step"), False, ("barrier",)),
    (ScatterBefore("step", "data"), True, ("scatter_field", "data")),
    (GatherAfter("step", "data"), False, ("gather_field", "data")),
    (AllGatherAfter("step", "data"), False, ("allgather_field", "data")),
    (HaloExchangeBefore("step", "data"), True, ("halo_field", "data")),
    (SafePointAfter("step"), False, ("on_safepoint",)),
]


class TestAdvice:
    @staticmethod
    def _bound(plugset):
        obj = plug(Stepper, plugset)()
        obj.__pp_ctx__ = _Recorder(obj.calls)
        return obj

    @pytest.mark.parametrize("tmpl,before,hook", ADVICE,
                             ids=[type(t).__name__ for t, _, _ in ADVICE])
    def test_hook_runs_on_its_side_of_the_method(self, tmpl, before, hook):
        obj = self._bound(PlugSet(tmpl))
        assert obj.step(3, scale=2) == 6
        method = ("step", 3)
        assert obj.calls == ([hook, method] if before else [method, hook])

    @pytest.mark.parametrize("tmpl", [t for t, _, _ in ADVICE],
                             ids=[type(t).__name__ for t, _, _ in ADVICE])
    def test_without_context_only_the_method_runs(self, tmpl):
        obj = plug(Stepper, PlugSet(tmpl))()
        assert obj.step(4) == 4
        assert obj.calls == [("step", 4)]

    @pytest.mark.parametrize("tmpl,before,hook", ADVICE,
                             ids=[type(t).__name__ for t, _, _ in ADVICE])
    def test_context_is_read_after_the_method_returns(self, tmpl, before,
                                                      hook):
        # a method that binds the context sees its after-advice run, and
        # its before-advice not.
        class Binds(Stepper):
            def step(self, x, scale=1):
                self.__pp_ctx__ = _Recorder(self.calls)
                return super().step(x, scale)

        obj = plug(Binds, PlugSet(tmpl))()
        obj.step(5)
        assert obj.calls == ([("step", 5)] if before
                             else [("step", 5), hook])

    def test_advice_nests_by_template_order(self):
        # declared outermost first; Template.order puts the barrier (60)
        # innermost, the scatter (70) around it, the safe point (80)
        # outermost.
        obj = self._bound(PlugSet(SafePointAfter("step"),
                                  ScatterBefore("step", "data"),
                                  BarrierBefore("step")))
        obj.step(1)
        assert obj.calls == [("scatter_field", "data"), ("barrier",),
                             ("step", 1), ("on_safepoint",)]


class TestMakeContext:
    def test_context_inherits_declarations(self):
        W = plug(Toy, PlugSet(SafeData("data"),
                              Partitioned("data", BlockLayout())))
        ctx = make_context(W, ExecConfig.sequential())
        assert ctx.safedata == ["data"]
        assert "data" in ctx.partitioned

    def test_bind_validates_fields(self):
        W = plug(Toy, PlugSet(SafeData("data", "n")))
        ctx = make_context(W, ExecConfig.sequential())
        inst = W()
        ctx.bind(inst)
        assert inst.__pp_ctx__ is ctx

    def test_bind_missing_field_rejected(self):
        class Empty:
            def step(self):
                pass

        W = plug(Empty, PlugSet(SafeData("ghost"), SafePointAfter("step")))
        ctx = make_context(W, ExecConfig.sequential())
        with pytest.raises(WeaveError, match="ghost"):
            ctx.bind(W())


class TestExecConfig:
    def test_processing_elements(self):
        assert ExecConfig.sequential().processing_elements == 1
        assert ExecConfig.shared(8).processing_elements == 8
        assert ExecConfig.distributed(4).processing_elements == 4
        assert ExecConfig.hybrid(4, 8).processing_elements == 32

    def test_invalid_combinations(self):
        from repro.core.modes import Mode

        with pytest.raises(ValueError):
            ExecConfig(Mode.SEQUENTIAL, workers=2)
        with pytest.raises(ValueError):
            ExecConfig(Mode.SHARED, nranks=2)
        with pytest.raises(ValueError):
            ExecConfig(Mode.DISTRIBUTED, workers=2)
        with pytest.raises(ValueError):
            ExecConfig(Mode.SHARED, workers=0)


class TestSmpSemantics:
    """Shared-memory template semantics via a live runtime context."""

    def _run_shared(self, plugset, workers=4, n=32):
        from repro.core import Runtime

        W = plug(Toy, plugset)
        rt = Runtime()
        result = rt.run(W, ctor_args=(n,), entry="drive",
                        config=ExecConfig.shared(workers), fresh=True)
        return result

    def test_parallel_for_covers_range(self):
        class App(Toy):
            def drive(self):
                self.region()
                return self.data.copy()

            def region(self):
                self.work(0, self.n)

        ps = PlugSet(ParallelMethod("region"), ForMethod("work"))
        W = plug(App, ps)
        from repro.core import Runtime

        res = Runtime().run(W, ctor_args=(32,), entry="drive",
                            config=ExecConfig.shared(4), fresh=True)
        np.testing.assert_array_equal(res.value, np.ones(32))

    def test_master_and_single(self):
        """One team member is the master, and one runs each single."""
        import threading

        lock = threading.Lock()
        calls = {"master": 0, "single": 0}

        class App(Toy):
            def drive(self):
                self.region()
                return calls

            def region(self):
                if self.__pp_ctx__.team.is_master():
                    with lock:
                        calls["master"] += 1
                self.single_part()

            def single_part(self):
                with lock:
                    calls["single"] += 1

        ps = PlugSet(ParallelMethod("region"), SingleMethod("single_part"))
        W = plug(App, ps)
        from repro.core import Runtime

        res = Runtime().run(W, ctor_args=(4,), entry="drive",
                            config=ExecConfig.shared(6), fresh=True)
        assert res.value == {"master": 1, "single": 1}
