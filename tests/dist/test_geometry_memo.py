"""Copy geometry is resolved once, and the per-copy work stays the same.

A pencil pipeline repeats a handful of copy geometries thousands of times
per step.  The copy engines memoise each geometry's ``ChunkLayout`` and
Fig. 7 price, and ``AutoEngine`` memoises its tuned engine, so a warm
transform never re-derives either.  These tests pin that down and check
that every copy still emits the same span and counters, and that a new
geometry is resolved afresh and stays bit-identical to the reference.
"""

import numpy as np
import pytest

from repro.cuda.copyengine import ENGINE_NAMES, ChunkLayout, CopyAutotuner
from repro.dist.decomp import SlabDecomposition
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import Observability
from repro.spectral.grid import SpectralGrid


def _spectral_field(grid, P, heights=None, seed=0):
    d = SlabDecomposition(grid.n, P, heights=heights)
    rng = np.random.default_rng(seed)
    out = []
    for r in range(P):
        shape = d.local_spectral_shape(r)
        out.append(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            .astype(grid.cdtype)
        )
    return out


@pytest.fixture
def resolve_calls(monkeypatch):
    """Count ``CopyAutotuner.choose`` and ``ChunkLayout.of`` calls."""
    calls = {"choose": 0, "of": 0}
    raw_choose = CopyAutotuner.choose
    raw_of = ChunkLayout.of.__func__

    def choose(self, *args, **kwargs):
        calls["choose"] += 1
        return raw_choose(self, *args, **kwargs)

    def of(cls, *arrays):
        calls["of"] += 1
        return raw_of(cls, *arrays)

    monkeypatch.setattr(CopyAutotuner, "choose", choose)
    monkeypatch.setattr(ChunkLayout, "of", classmethod(of))
    return calls


def _copy_record(obs):
    """The copy counters and the (name, engine, nbytes, model_cost) spans."""
    counters = {
        r["name"]: r.get("value", 0)
        for r in obs.metrics.snapshot()
        if r["name"].startswith("copy.")
    }
    spans = [
        (a.name, a.meta["engine"], a.meta["nbytes"], a.meta["model_cost"])
        for a in obs.spans.activities
        if a.name in ("arena.h2d", "arena.d2h")
    ]
    return counters, spans


@pytest.mark.parametrize("strategy", ["auto", *ENGINE_NAMES])
def test_warm_pair_resolves_nothing_and_copies_the_same(
    strategy, resolve_calls
):
    grid = SpectralGrid(16)
    P = 2
    spec = _spectral_field(grid, P)
    obs = Observability.create()
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), 4, pipeline="sync", obs=obs,
        copy_strategy=strategy,
    ) as fft:
        first_back = fft.forward(fft.inverse(spec))
        counters1, spans1 = _copy_record(obs)
        assert resolve_calls["of"] > 0
        assert (resolve_calls["choose"] > 0) == (strategy == "auto")
        resolve_calls.update(choose=0, of=0)

        obs.spans.clear()
        back = fft.forward(fft.inverse(spec))
        counters2, spans2 = _copy_record(obs)

    assert resolve_calls == {"choose": 0, "of": 0}
    # Each counter doubled: the warm pair added exactly the first pair's
    # copies (autotune probes happen once, in the first pair only).
    for name, value in counters1.items():
        expect = value if name == "copy.autotune.probes" else 2 * value
        assert counters2[name] == expect, name
    assert spans2 == spans1
    assert len(spans1) > 0
    for a, b in zip(back, first_back):
        assert np.array_equal(a, b)


def _sync_reference(grid, P, npencils, heights, spec):
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), npencils, pipeline="sync", heights=heights,
    ) as ref:
        phys = ref.inverse(spec)
        return phys, ref.forward(phys)


@pytest.mark.parametrize(
    "npencils,heights", [(8, None), (4, (10, 6)), (4, (12, 4, 0))]
)
def test_new_geometry_stays_bit_identical(npencils, heights, resolve_calls):
    grid = SpectralGrid(16)
    P = 2 if heights is None else len(heights)
    spec = _spectral_field(grid, P, heights=heights)
    ref_phys, ref_spec = _sync_reference(grid, P, npencils, heights, spec)
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), npencils, pipeline="threads", heights=heights,
        copy_strategy="auto",
    ) as fft:
        for warm in (False, True):
            resolve_calls.update(choose=0, of=0)
            phys = fft.inverse(spec)
            back = fft.forward(phys)
            for a, b in zip(phys, ref_phys):
                assert np.array_equal(a, b)
            for a, b in zip(back, ref_spec):
                assert np.array_equal(a, b)
            if warm:
                assert resolve_calls == {"choose": 0, "of": 0}
            else:
                assert resolve_calls["choose"] > 0
        assert fft.arena.in_use == 0


def test_non_contiguous_slab_is_resolved_afresh(resolve_calls):
    grid = SpectralGrid(16)
    P = 2
    spec = _spectral_field(grid, P)
    ref_phys, ref_spec = _sync_reference(grid, P, 4, None, spec)
    # The same values seen through strided views: every host-side copy
    # geometry of the first phase is new to the warmed engine.
    strided = []
    for loc in spec:
        wide = np.zeros(loc.shape[:-1] + (2 * loc.shape[-1],), loc.dtype)
        wide[..., ::2] = loc
        strided.append(wide[..., ::2])
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), 4, pipeline="threads", copy_strategy="auto",
    ) as fft:
        fft.forward(fft.inverse(spec))
        resolve_calls.update(choose=0, of=0)
        phys = fft.inverse(strided)
        assert resolve_calls["of"] > 0 and resolve_calls["choose"] > 0
        back = fft.forward(phys)
    for a, b in zip(phys, ref_phys):
        assert np.array_equal(a, b)
    for a, b in zip(back, ref_spec):
        assert np.array_equal(a, b)
