"""Modeled outputs of the batch workloads, pinned, and the replay's memory.

The pinned figures are the modeled seconds and active joules of the
seven Table 3 apps plus LeNet and attention (seed 7, default params, an
8-TPU platform), as the generator-process DES of
:mod:`repro.conformance.des` computes them.  They must not move: any
change in event order, link grants or residency shows up here.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.apps import all_applications
from repro.host.platform import Platform
from repro.nn.models import attention, lenet, sample_input
from repro.runtime.api import OpenCtpu

SEED = 7

#: name -> (modeled seconds, active joules), repr-exact.
PINNED = {
    "backprop": (0.057524574782386165, 0.6067221920079663),
    "blackscholes": (0.007047228697684353, 0.04142611369979977),
    "gaussian": (0.054754889434137, 0.6128784737410041),
    "gemm": (0.011684843953450513, 0.12759558084201375),
    "hotspot3d": (0.02014329688020109, 0.20889199546310838),
    "lud": (0.032656196115310905, 0.24749324088439306),
    "pagerank": (0.018546305060080072, 0.2515635888955188),
    "lenet": (0.048939633402412266, 0.4961748758359577),
    "attention": (0.0018084672828002552, 0.018050018271079323),
}


@pytest.mark.parametrize("name", sorted(all_applications()))
def test_app_modeled_outputs_pinned(name):
    app = all_applications()[name]
    data = app.generate(seed=SEED, **app.default_params())
    res = app.run_gptpu(data, OpenCtpu(Platform.with_tpus(8)))
    assert (res.wall_seconds, res.energy.active_joules) == PINNED[name]


@pytest.mark.parametrize("name, build, batch", [("lenet", lenet, 64), ("attention", attention, 2)])
def test_model_modeled_outputs_pinned(name, build, batch):
    model = build(SEED)
    ctx = OpenCtpu(Platform.with_tpus(8))
    model.forward(ctx, sample_input(model, batch=batch, seed=SEED))
    report = ctx.sync()
    assert (report.wall_seconds, report.energy.active_joules) == PINNED[name]


def test_synced_operations_freed_without_gc():
    """A sync leaves no reference cycle that holds its operations."""
    rng = np.random.default_rng(0)
    ctx = OpenCtpu(Platform.with_tpus(2))
    ctx.invoke_operator("add", rng.random((200, 200)), rng.random((200, 200)))
    ctx.invoke_operator("FullyConnected", rng.random(300), rng.random((300, 100)))
    refs = [weakref.ref(op) for op in ctx._pending]
    gc.disable()
    try:
        ctx.sync()
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
