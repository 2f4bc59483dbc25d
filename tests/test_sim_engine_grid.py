"""Degenerate machine and launch shapes across the whole simulator grid.

``test_sim_memory_fastpath.test_engine_front_end_grid_bit_identical``
closes the engine x front-end grid on real memory-bound kernels; this
module closes it on the corner shapes those kernels never produce — a
single SM, one warp slot per SM, far fewer blocks than SMs, blocks of
one instruction or of nothing but memory instructions, a block cap
below the warp-slot limit, and block sizes skewed across SMs.  Every
case runs each engine with each memory front end under both schedulers
and demands one identical result, and the same shape invariants
(instruction conservation, per-SM accounting) from all of them.

The last case is the warm-reuse contract the launch fan-out relies on
(``repro.sim.worker``): a simulator that has already run other
launches returns exactly what a fresh one does.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.profiler import profile_launch
from repro.sim import GPUSimulator
from repro.sim.memory import MEMORY_FRONT_ENDS

from tests.conftest import make_manual_launch, make_uniform_kernel

ENGINES = ("compact", "reference")


def _fingerprint(result) -> tuple:
    """Every observable field of a LaunchResult."""
    return (
        result.issued_warp_insts,
        result.wall_cycles,
        tuple(result.per_sm_issued),
        tuple(result.per_sm_busy_cycles),
        result.skipped_warp_insts,
        result.extra_cycles,
        tuple(sorted(result.mem_stats.items())),
    )


def _uniform(**kwargs):
    return make_uniform_kernel(num_launches=1, **kwargs).launches[0]


#: name -> (GPUConfig overrides, launch builder)
CASES = {
    "single_sm": (
        dict(num_sms=1),
        lambda: _uniform(blocks_per_launch=16),
    ),
    "one_warp_per_sm": (
        dict(num_sms=2, warps_per_sm=1),
        lambda: _uniform(blocks_per_launch=8, warps_per_block=1),
    ),
    "fewer_blocks_than_sms": (
        dict(num_sms=14),
        lambda: make_manual_launch([20, 20]),
    ),
    "single_instruction_warps": (
        dict(num_sms=2),
        lambda: make_manual_launch([1, 1, 1], mem_every=0),
    ),
    "pure_memory_block": (
        dict(num_sms=2),
        lambda: make_manual_launch([12], mem_every=1, warps_per_block=3),
    ),
    "block_cap_below_warp_slots": (
        dict(num_sms=2, warps_per_sm=64, max_blocks_per_sm=8),
        lambda: _uniform(blocks_per_launch=64, warps_per_block=1),
    ),
    "skewed_block_sizes": (
        dict(num_sms=3, warps_per_sm=4),
        lambda: make_manual_launch(
            [5, 40, 1, 17, 33, 2, 9, 64, 3], warps_per_block=2
        ),
    ),
}


def _grid(gpu: GPUConfig):
    for engine in ENGINES:
        for front_end in MEMORY_FRONT_ENDS:
            yield engine, front_end, GPUSimulator(
                gpu, engine=engine, mem_front_end=front_end
            )


@pytest.mark.parametrize("scheduler", ["oldest", "lrr"])
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_shape_identical_across_grid(case, scheduler):
    overrides, build = CASES[case]
    gpu = GPUConfig(scheduler=scheduler, **overrides)
    launch = build()
    expected_insts = profile_launch(launch).total_warp_insts
    prints = {}
    for engine, front_end, sim in _grid(gpu):
        result = sim.run_launch(launch)
        assert result.issued_warp_insts == expected_insts
        assert result.skipped_warp_insts == 0
        assert len(result.per_sm_issued) == gpu.num_sms
        assert len(result.per_sm_busy_cycles) == gpu.num_sms
        assert sum(result.per_sm_issued) == expected_insts
        for issued, busy in zip(
            result.per_sm_issued, result.per_sm_busy_cycles
        ):
            assert (issued == 0) == (busy == 0)
            assert busy <= result.wall_cycles
        assert 0 < result.machine_ipc <= gpu.num_sms
        prints[(engine, front_end)] = _fingerprint(result)
    assert len(set(prints.values())) == 1, prints


@pytest.mark.parametrize("scheduler", ["oldest", "lrr"])
def test_warm_simulator_matches_fresh(scheduler):
    gpu = GPUConfig(num_sms=3, warps_per_sm=8, scheduler=scheduler)
    first = make_manual_launch([30, 12, 45, 7, 22], warps_per_block=2)
    other = _uniform(blocks_per_launch=24, warps_per_block=2)
    for engine, front_end, sim in _grid(gpu):
        fresh = GPUSimulator(gpu, engine=engine, mem_front_end=front_end)
        want = _fingerprint(fresh.run_launch(first))
        assert _fingerprint(sim.run_launch(first)) == want
        sim.run_launch(other)
        again = _fingerprint(sim.run_launch(first))
        assert again == want, (engine, front_end)
