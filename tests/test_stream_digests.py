"""Byte-identical outputs at fixed seeds.

The digests below pin how the sampler and the limit simulator consume their
random streams.  A change that keeps the streams (memory layout, kernel
rewrites) must keep these digests; a change that consumes the streams
differently (say, one uniform per sampler step instead of two) updates them
and says so in CHANGES.md.  The limit ensemble's `weights` are left out: they
pass through `np.exp`, whose last bit may differ between NumPy builds.
"""

import hashlib

import numpy as np

from opentasep import (
    build_partition_table,
    sample_functionals,
    sample_two_line,
    simulate_limit_process,
)


def digest(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def test_sampler_paths():
    paths = sample_two_line(build_partition_table(40, 0.3, 0.45), 3000, seed=11)
    assert digest(paths.s1, "<i4") == (
        "db7b01516fb010f01cc549f2f66fa5430a04b63651373a10934f075b8a7a8008")
    assert digest(paths.s2, "<i4") == (
        "111af9d6028334c7e7f3642b8044f3505ee7ac00942f4d58c589ae2090f44879")


def test_sampler_functionals():
    table = build_partition_table(40, 0.3, 0.45)
    s1, d = sample_functionals(table, 3000, seed=11, positions=[0, 10, 40])
    assert digest(s1, "<i4") == (
        "61edbbafc4b158e074d44e092c12f879592a2443771a5000277f648ad9ac4206")
    assert digest(d, "<i4") == (
        "30398140f9f6a117e524d7ce11194b4b151d6972ee4bd8938a5883111bca46fc")


def test_limit_paths():
    ens = simulate_limit_process(-1.0, 0.3, 128, 5000, 3)
    assert digest(ens.omega_mesh, "<f8") == (
        "e19fe925d43ed489ad4d1f10c104077991923a5678330beddf057c0f89a7be30")
