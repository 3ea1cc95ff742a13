"""Figure 9: application-level scaling with h5bench over HDF5.

Each MPI rank hosts one fabric initiator (§V-E); ranks on one
initiator-node share that node's NIC and talk to the paired target-node.
Rank 0 of each node issues latency-sensitive metadata updates; bulk
particle I/O is throughput-critical.  Panels:

* (a) write / (b) read — pattern 2 (grow initiator-nodes, 10 ranks each);
* (c) write / (d) read — pattern 1 (grow ranks per node, 4 node pairs).

The paper's figure caption says 25 Gbps while Observation 5 says 100 Gbps;
we follow the caption (25 Gbps) and note the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cluster.scenario import Scenario, ScenarioConfig
from ..core.window import select_window
from ..errors import ConfigError
from ..hdf5sim.file import H5File
from ..hdf5sim.mpi import Communicator, SimRank
from ..metrics.report import format_table, improvement_pct
from ..parallel.pool import run_campaign
from ..parallel.units import KIND_FIG9_POINT, WorkUnit
from ..workloads.h5bench import (
    H5BenchConfig,
    H5BenchKernel,
    H5BenchRankResult,
    aggregate_bandwidth_mbps,
)

#: File-region blocks reserved per rank on its target namespace.
_RANK_REGION_BLOCKS = 1 << 16


@dataclass
class Fig9Point:
    panel: str
    mode: str
    pattern: int
    protocol: str
    total_ranks: int
    bandwidth_mbps: float
    mean_latency_us: float


def run_h5bench_cluster(
    protocol: str,
    bench: H5BenchConfig,
    n_node_pairs: int,
    ranks_per_node: int,
    network_gbps: float = 25.0,
    window_size: Optional[int] = None,
    seed: int = 1,
) -> tuple:
    """Run one h5bench cluster point; returns (aggregate MB/s, mean lat us)."""
    if n_node_pairs < 1 or ranks_per_node < 1:
        raise ConfigError("need at least one node pair and one rank")
    sc = Scenario(
        ScenarioConfig(protocol=protocol, network_gbps=network_gbps, seed=seed)
    )
    env = sc.env
    collector = sc.collector
    window = window_size or select_window(
        bench.mode, network_gbps, tc_initiators=ranks_per_node
    )

    kernels: List[H5BenchKernel] = []
    connect_events = []
    total_ranks = n_node_pairs * ranks_per_node
    comm = Communicator(env, total_ranks)
    global_rank = 0
    for pair in range(n_node_pairs):
        tnode = sc.add_target_node(f"target{pair}")
        inode = sc.add_initiator_node(f"client{pair}")
        for local in range(ranks_per_node):
            initiator = inode.add_initiator(
                f"rank{global_rank}", tnode,
                protocol=protocol,
                queue_depth=bench.queue_depth,
                collector=collector,
                window_size=window,
            )
            connect_events.append(initiator.connect())
            h5file = H5File(
                f"rank{global_rank}.h5",
                base_lba=local * _RANK_REGION_BLOCKS,
                capacity_blocks=_RANK_REGION_BLOCKS,
            )
            kernels.append(
                H5BenchKernel(
                    env, bench, initiator, h5file, comm,
                    rank=global_rank,
                    metadata_rank=(local == 0),  # one LS issuer per node
                )
            )
            global_rank += 1

    env.run(until=env.all_of(connect_events))
    collector.start_measuring()
    ranks = [
        SimRank(env, kernel.rank, comm, kernel.body, name=f"h5rank{kernel.rank}")
        for kernel in kernels
    ]
    env.run(until=env.all_of([r.done for r in ranks]))
    collector.stop_measuring()
    env.run()

    results: List[H5BenchRankResult] = [k.result for k in kernels if k.result is not None]
    bandwidth = aggregate_bandwidth_mbps(results)
    pooled = collector.combined_latency(None)
    mean_lat = pooled.mean() if len(pooled) else 0.0
    return bandwidth, mean_lat


#: Figure 9 panel of each (pattern, mode).
_PANELS = {(2, "write"): "a", (2, "read"): "b", (1, "write"): "c", (1, "read"): "d"}


def fig9_units(
    modes: Sequence[str] = ("write", "read"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 4,
    ranks_per_node_max: int = 10,
    particles_per_rank: int = 256 * 1024,
    timesteps: int = 2,
    network_gbps: float = 25.0,
    dataset_load_us: float = 25_000.0,
    seed: int = 1,
) -> List[WorkUnit]:
    """The Figure 9 grid: one unit per h5bench cluster point."""
    units: List[WorkUnit] = []
    for mode in modes:
        bench = {
            "mode": mode,
            "particles_per_rank": particles_per_rank,
            "timesteps": timesteps,
            "dataset_load_us": dataset_load_us,
        }
        for pattern in patterns:
            if pattern == 2:
                grid = [(pairs, ranks_per_node_max) for pairs in range(1, n_node_pairs + 1)]
            else:
                step = max(1, ranks_per_node_max // 4)
                grid = [
                    (n_node_pairs, per_node)
                    for per_node in range(step, ranks_per_node_max + 1, step)
                ]
            for protocol in ("spdk", "nvme-opf"):
                for pairs, per_node in grid:
                    units.append(
                        WorkUnit(
                            unit_id=f"fig9/{mode}/p{pattern}/{protocol}/{pairs}x{per_node}",
                            kind=KIND_FIG9_POINT,
                            payload={
                                "bench": bench,
                                "protocol": protocol,
                                "pairs": pairs,
                                "per_node": per_node,
                                "network_gbps": network_gbps,
                                "seed": seed,
                                "pattern": pattern,
                            },
                        )
                    )
    return units


def run_fig9(
    modes: Sequence[str] = ("write", "read"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 4,
    ranks_per_node_max: int = 10,
    particles_per_rank: int = 256 * 1024,
    timesteps: int = 2,
    network_gbps: float = 25.0,
    dataset_load_us: float = 25_000.0,
    seed: int = 1,
    workers: int = 0,
    print_table: bool = False,
) -> List[Fig9Point]:
    """Run the Figure 9 panels (scaled particle counts).

    ``dataset_load_us`` models h5bench's dataset loading between read
    timesteps (§V-E "Discussion on h5bench overhead") — it is what keeps
    read bandwidth, and oPF's read-side gain, below the write numbers.
    ``workers`` > 1 fans the points out to that many processes.
    """
    units = fig9_units(
        modes,
        patterns,
        n_node_pairs,
        ranks_per_node_max,
        particles_per_rank,
        timesteps,
        network_gbps,
        dataset_load_us,
        seed,
    )
    campaign = run_campaign(units, workers)
    points = []
    for unit, result in zip(units, campaign.results):
        payload = unit.payload
        mode = payload["bench"]["mode"]
        points.append(
            Fig9Point(
                panel=_PANELS[(payload["pattern"], mode)],
                mode=mode,
                pattern=payload["pattern"],
                protocol=payload["protocol"],
                total_ranks=payload["pairs"] * payload["per_node"],
                bandwidth_mbps=result.data["bandwidth_mbps"],
                mean_latency_us=result.data["mean_latency_us"],
            )
        )
    if print_table:
        print(format_fig9(points))
    return points


def format_fig9(points: List[Fig9Point]) -> str:
    rows = []
    paired = {}
    for p in points:
        paired.setdefault((p.panel, p.total_ranks), {})[p.protocol] = p
    for (panel, ranks), pair in sorted(paired.items()):
        if "spdk" not in pair or "nvme-opf" not in pair:
            continue
        s, o = pair["spdk"], pair["nvme-opf"]
        rows.append(
            [panel, s.mode, ranks, s.bandwidth_mbps, o.bandwidth_mbps,
             improvement_pct(o.bandwidth_mbps, s.bandwidth_mbps),
             s.mean_latency_us, o.mean_latency_us]
        )
    return format_table(
        ["panel", "mode", "ranks", "SPDK MB/s", "oPF MB/s", "+%",
         "SPDK lat", "oPF lat"],
        rows,
        title="Figure 9: h5bench scale-out",
    )
