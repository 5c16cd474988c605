"""Pluggable parallelisation core — the paper's primary contribution.

Public API tour::

    from repro.core import (
        plug, PlugSet, Runtime, ExecConfig, Mode,
        ParallelMethod, ForMethod, Partitioned, ScatterBefore, GatherAfter,
        SafeData, SafePointAfter, IgnorableMethod,
        AdaptationPlan, AdaptStep,
    )

    # 1. plain domain class (runs sequentially, unaware of parallelism)
    class App: ...

    # 2. separate plug modules
    SHARED = PlugSet(ParallelMethod("run"), ForMethod("kernel"))
    CKPT = PlugSet(SafeData("state"), SafePointAfter("step"),
                   IgnorableMethod("kernel"))

    # 3. weave and launch in any mode; checkpoint + adaptation included
    Woven = plug(App, SHARED + CKPT)
    rt = Runtime(policy=EveryN(10), ckpt_dir="ckpts")
    result = rt.run(Woven, config=ExecConfig.shared(8))
"""

from repro.core.adaptation import AdaptationPlan, AdaptationRecord, AdaptStep
from repro.core.context import (
    STRATEGY_LOCAL,
    STRATEGY_MASTER,
    ExecutionContext,
)
from repro.core.errors import AdaptationExit, WeaveError
from repro.core.modes import Capabilities, ExecConfig, Mode
from repro.core.plugs import PlugSet
from repro.core.rewriter import is_woven, make_context, plug, unplug
from repro.core.runtime import PhaseReport, RunResult, Runtime
from repro.core.templates import (
    AllGatherAfter,
    BarrierAfter,
    BarrierBefore,
    ForMethod,
    GatherAfter,
    HaloExchangeBefore,
    IgnorableMethod,
    ParallelMethod,
    Partitioned,
    Replicate,
    Replicated,
    SafeData,
    SafePointAfter,
    ScatterBefore,
    SingleMethod,
    Template,
)

__all__ = [
    "AdaptStep",
    "AllGatherAfter",
    "AdaptationExit",
    "AdaptationPlan",
    "AdaptationRecord",
    "BarrierAfter",
    "BarrierBefore",
    "Capabilities",
    "ExecConfig",
    "ExecutionContext",
    "ForMethod",
    "GatherAfter",
    "HaloExchangeBefore",
    "IgnorableMethod",
    "Mode",
    "ParallelMethod",
    "Partitioned",
    "PhaseReport",
    "PlugSet",
    "Replicate",
    "Replicated",
    "RunResult",
    "Runtime",
    "STRATEGY_LOCAL",
    "STRATEGY_MASTER",
    "SafeData",
    "SafePointAfter",
    "ScatterBefore",
    "SingleMethod",
    "Template",
    "WeaveError",
    "is_woven",
    "make_context",
    "plug",
    "unplug",
]
