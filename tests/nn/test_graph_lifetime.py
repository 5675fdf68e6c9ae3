"""An autograd graph is freed by reference counting, as soon as its root is.

Every backward closure receives its output's gradient as an argument rather
than closing over the output tensor, so a node references only its inputs and
the recorded graph holds no reference cycle.  Each case runs with Python's
cyclic collector disabled: once the caller drops the root, every intermediate
must already be dead, and ``gc.collect()`` must find nothing to free.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro import get_profile
from repro.baselines import CLHARMethod, ConvEncoder, MethodBudget, SmallConvEncoder, TPNMethod
from repro.datasets import SyntheticIMUConfig, generate_synthetic_dataset
from repro.models import build_pretraining_model
from repro.nn import (
    Conv1d,
    CrossEntropyLoss,
    NTXentLoss,
    Tensor,
    concatenate,
    functional as F,
    stack,
    where,
)
from repro.training import FinetuneConfig, Finetuner, PretrainConfig, Pretrainer


@contextmanager
def cyclic_gc_disabled():
    """Collect what earlier code left, then keep the cyclic collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _leaf(shape, seed, positive=False):
    data = np.random.default_rng(seed).standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


def _op_cases():
    """(name, leaves, op) triples covering every graph-recording op.

    Modules are built here, outside the region under test, so that only the
    forward and backward run with the collector off.
    """
    a, b = _leaf((4, 5), 0), _leaf((4, 5), 1)
    p = _leaf((4, 5), 2, positive=True)
    m = _leaf((5, 3), 3)
    v = _leaf((5,), 4)
    batched = _leaf((2, 4, 5), 5)
    x3 = _leaf((2, 9, 3), 6)
    conv = Conv1d(3, 4, kernel_size=3, stride=2, padding=1, rng=np.random.default_rng(7))
    gamma, beta = _leaf((5,), 8), _leaf((5,), 9)
    cond = np.random.default_rng(10).random((4, 5)) > 0.5
    return [
        ("add", (a, b), lambda: a + b),
        ("radd", (a,), lambda: 2.0 + a),
        ("sub", (a, b), lambda: a - b),
        ("rsub", (a,), lambda: 1.0 - a),
        ("neg", (a,), lambda: -a),
        ("mul", (a, b), lambda: a * b),
        ("truediv", (a, p), lambda: a / p),
        ("rtruediv", (p,), lambda: 1.0 / p),
        ("pow", (p,), lambda: p ** 1.5),
        ("matmul", (a, m), lambda: a @ m),
        ("matmul_batched", (batched, m), lambda: batched @ m),
        ("matmul_vector", (a, v), lambda: a @ v),
        ("vector_matmul", (v, m), lambda: v @ m),
        ("exp", (a,), lambda: a.exp()),
        ("log", (p,), lambda: p.log()),
        ("sqrt", (p,), lambda: p.sqrt()),
        ("tanh", (a,), lambda: a.tanh()),
        ("sigmoid", (a,), lambda: a.sigmoid()),
        ("relu", (a,), lambda: a.relu()),
        ("gelu", (a,), lambda: a.gelu()),
        ("abs", (a,), lambda: a.abs()),
        ("clip", (a,), lambda: a.clip(-0.5, 0.5)),
        ("sum", (a,), lambda: a.sum(axis=1)),
        ("mean", (a,), lambda: a.mean(axis=0, keepdims=True)),
        ("var", (a,), lambda: a.var(axis=1)),
        ("max", (a,), lambda: a.max(axis=1)),
        ("reshape", (a,), lambda: a.reshape(20)),
        ("transpose", (batched,), lambda: batched.transpose(2, 0, 1)),
        ("swapaxes", (batched,), lambda: batched.swapaxes(1, 2)),
        ("getitem", (a,), lambda: a[1:3, ::2]),
        ("expand_dims", (a,), lambda: a.expand_dims(1)),
        ("squeeze", (a,), lambda: a.expand_dims(0).squeeze(0)),
        ("astype", (a,), lambda: a.astype(np.float32)),
        ("concatenate", (a, b), lambda: concatenate([a, b], axis=1)),
        ("stack", (a, b), lambda: stack([a, b], axis=0)),
        ("where", (a, b), lambda: where(cond, a, b)),
        ("softmax", (a,), lambda: F.softmax(a, axis=-1)),
        ("log_softmax", (a,), lambda: F.log_softmax(a, axis=-1)),
        ("layer_norm", (a, gamma, beta), lambda: F.layer_norm(a, gamma, beta)),
        ("cosine_similarity", (a, b), lambda: F.cosine_similarity(a, b)),
        ("conv1d", (x3,), lambda: conv(x3)),
    ]


_CASES = _op_cases()


@pytest.mark.parametrize("name, leaves, op", _CASES, ids=[case[0] for case in _CASES])
def test_graph_is_freed_with_its_root_without_the_cyclic_collector(name, leaves, op):
    for leaf in leaves:
        leaf.zero_grad()
    with cyclic_gc_disabled():
        intermediate = op()
        root = (intermediate * intermediate).sum()
        watched = weakref.ref(intermediate)
        del intermediate
        root.backward()
        assert watched() is not None, "the graph must live while its root does"
        del root
        intermediate_dead = watched() is None
        garbage = gc.collect()
    assert intermediate_dead, f"{name}: intermediate outlived its root"
    assert garbage == 0, f"{name}: the graph left {garbage} objects for the cyclic collector"
    assert all(leaf.grad is not None for leaf in leaves)


# ----------------------------------------------------------------------
# Training steps on the bench backbone
# ----------------------------------------------------------------------
BATCH = 16


@pytest.fixture(scope="module")
def bench_windows():
    """96 windows (six batches of 16) at the bench profile's window length."""
    profile = get_profile("bench")
    dataset = generate_synthetic_dataset(
        SyntheticIMUConfig(
            num_users=3,
            activities=("walking", "jogging", "sitting", "standing"),
            windows_per_combination=8,
            window_length=profile.window_length,
            seed=5,
        )
    )
    assert len(dataset) >= 6 * BATCH
    return dataset, profile.backbone_config(dataset.num_channels)


def _watch_roots(monkeypatch):
    """Weak references to every tensor ``backward`` is called on."""
    roots = []
    original = Tensor.backward

    def backward(self, grad=None):
        roots.append(weakref.ref(self))
        return original(self, grad)

    monkeypatch.setattr(Tensor, "backward", backward)
    return roots


def _pretrainer(backbone_config):
    config = PretrainConfig(epochs=1, batch_size=BATCH, learning_rate=3e-3, log_every=0)
    return Pretrainer(config, backbone_config)


def test_pretrain_step_leaves_no_cyclic_garbage(bench_windows, monkeypatch):
    dataset, backbone_config = bench_windows
    one_batch = dataset.subset(np.arange(BATCH))
    pretrainer = _pretrainer(backbone_config)
    roots = _watch_roots(monkeypatch)
    with cyclic_gc_disabled():
        result = pretrainer.pretrain(one_batch, rng=np.random.default_rng(0))
        losses_dead = [root() is None for root in roots]
        garbage = gc.collect()
    assert losses_dead == [True]
    assert garbage == 0, f"one pre-training step left {garbage} objects for the cyclic collector"
    assert all(p.grad is not None for p in result.model.parameters())


def test_finetune_step_leaves_no_cyclic_garbage(bench_windows, monkeypatch):
    dataset, backbone_config = bench_windows
    one_batch = dataset.subset(np.arange(BATCH))
    backbone = build_pretraining_model(backbone_config, rng=np.random.default_rng(1)).backbone
    config = FinetuneConfig(
        epochs=1, batch_size=BATCH, learning_rate=3e-3, classifier_hidden_dim=8, log_every=0
    )
    roots = _watch_roots(monkeypatch)
    with cyclic_gc_disabled():
        result = Finetuner(config).finetune(
            backbone, one_batch, "activity", rng=np.random.default_rng(2)
        )
        losses_dead = [root() is None for root in roots]
        garbage = gc.collect()
    assert losses_dead == [True]
    assert garbage == 0, f"one fine-tuning step left {garbage} objects for the cyclic collector"
    assert all(p.grad is not None for p in result.model.parameters())


def _pretrain_peak_bytes(pretrainer, dataset) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        pretrainer.pretrain(dataset, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pretrain_peak_memory_holds_one_step_graph_at_a_time(bench_windows):
    """Six steps must peak like one: each step's graph is freed before the
    next forward builds its own, whenever the cyclic collector runs."""
    dataset, backbone_config = bench_windows
    pretrainer = _pretrainer(backbone_config)
    one = _pretrain_peak_bytes(pretrainer, dataset.subset(np.arange(BATCH)))
    six = _pretrain_peak_bytes(pretrainer, dataset.subset(np.arange(6 * BATCH)))
    assert six <= 1.5 * one, (six, one)


def _count_live_losses_at_each_forward(monkeypatch, loss_class, encoder_class):
    """At every encoder forward, how many losses of earlier steps are alive.

    Each loss ``loss_class`` returns is watched through a weak reference; a
    ``backward`` call ends a step, so the losses recorded before it belong to
    steps the next forward must no longer reach.
    """
    this_step, earlier_steps, live_counts = [], [], []
    original_loss, original_backward = loss_class.forward, Tensor.backward
    original_encoder = encoder_class.forward

    def loss_forward(self, *args, **kwargs):
        loss = original_loss(self, *args, **kwargs)
        this_step.append(weakref.ref(loss))
        return loss

    def backward(self, grad=None):
        earlier_steps.extend(this_step)
        this_step.clear()
        return original_backward(self, grad)

    def encoder_forward(self, windows):
        live_counts.append(sum(ref() is not None for ref in earlier_steps))
        return original_encoder(self, windows)

    monkeypatch.setattr(loss_class, "forward", loss_forward)
    monkeypatch.setattr(Tensor, "backward", backward)
    monkeypatch.setattr(encoder_class, "forward", encoder_forward)
    return live_counts


@pytest.mark.parametrize(
    "method_class, loss_class, encoder_class, forwards_per_step",
    [(CLHARMethod, NTXentLoss, ConvEncoder, 2), (TPNMethod, CrossEntropyLoss, SmallConvEncoder, 4)],
    ids=["clhar", "tpn"],
)
def test_baseline_pretraining_frees_each_step_before_the_next_forward(
    bench_windows, monkeypatch, method_class, loss_class, encoder_class, forwards_per_step
):
    dataset, _ = bench_windows
    budget = MethodBudget(pretrain_epochs=1, finetune_epochs=1, batch_size=BATCH, learning_rate=3e-3)
    method = method_class(budget=budget)
    live_counts = _count_live_losses_at_each_forward(monkeypatch, loss_class, encoder_class)
    with cyclic_gc_disabled():
        method.pretrain(dataset.subset(np.arange(3 * BATCH)), np.random.default_rng(0))
        garbage = gc.collect()
    assert len(live_counts) == 3 * forwards_per_step
    assert live_counts == [0] * len(live_counts), "a loss of an earlier step outlived its step"
    assert garbage == 0, f"pre-training left {garbage} objects for the cyclic collector"
