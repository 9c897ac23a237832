"""Byte-identical outputs at fixed seeds.

The digests below pin how the sampler and the two limit simulators consume
their random streams.  A change that keeps the streams (memory layout, kernel
rewrites) must keep these digests; a change that consumes the streams
differently (say, one uniform per sampler step instead of two) updates them
and says so in CHANGES.md.  The limit ensemble's `weights` are left out: they
pass through `np.exp`, whose last bit may differ between NumPy builds.
"""

import hashlib

import numpy as np

from opentasep import (
    build_partition_table,
    params_from_scaling,
    sample_functionals,
    sample_two_line,
    simulate_limit_exact,
    simulate_limit_process,
)


def digest(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def test_sampler_paths():
    paths = sample_two_line(build_partition_table(40, 0.3, 0.45), 3000, seed=11)
    assert digest(paths.s1, "<i4") == (
        "857abd1dc34c275468cf4599c5e6abbd9995ba86a12b172cc93541826f8524cd")
    assert digest(paths.s2, "<i4") == (
        "7138f9b54fb1e23a4954297c82116d01b7c4d24d3f195fdaaddc78a0a92e07b4")


def test_sampler_functionals():
    table = build_partition_table(40, 0.3, 0.45)
    s1, d = sample_functionals(table, 3000, seed=11, positions=[0, 10, 40])
    assert digest(s1, "<i4") == (
        "ca3139cd4fb586e2cd1ccde22c72c23f6d547332d7cef5fb29466b5695a374c1")
    assert digest(d, "<i4") == (
        "3ca06d07151f0aa07081b26bfe9084e104d897d32667f2e18c06db73c74b7aa0")


def test_sampler_functionals_at_fluct_n():
    # fluct's n and window over 2000 x 2048 steps: a table build whose
    # conditionals move a cut past any of these uniforms changes the digest
    p = params_from_scaling(-1.0, 0.3, 2048)
    s1, d = sample_functionals(build_partition_table(2048, p.a, p.b), 2000, seed=1,
                               positions=[512, 1024, 1536, 2048])
    assert digest(s1, "<i4") == (
        "621cfbfbf9314a92b827e58bf1052c740dae698fd277da4286316e2e6588c92b")
    assert digest(d, "<i4") == (
        "c0d39cb47678a12be53b27b305a871c645b5c3c020c575028e3166600294343a")


def test_limit_paths():
    ens = simulate_limit_process(-1.0, 0.3, 128, 5000, 3)
    assert digest(ens.omega_mesh, "<f8") == (
        "44cb8115b3ee16e148052270df37f5d39d4b3b90f8e29214fe2486059208e480")


def test_limit_exact_paths():
    ens = simulate_limit_exact(-1.0, 0.3, 5000, 3)
    assert digest(ens.omega_mesh, "<f8") == (
        "ecf1273f03e9d92ce1b564661ab741907d469158b8a448a6916f0ee09d8a22e8")
