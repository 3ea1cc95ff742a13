"""Window-size selection (paper §IV-D).

The coalescing window cannot be static: the best value depends on workload
type, network speed, and tenant concurrency.  ``select_window`` encodes the
paper's empirical guidance (peak at 32 on 25/100 Gbps; smaller windows on a
saturated 10 Gbps link, where large windows delay drain completions; never
more than half the queue depth, or the initiator risks exhausting its qpair
before a drain is ever sent).  The run-time adjustment the paper sketches
is the QoS ``aimd-window`` policy (:mod:`repro.qos.policy`), which resizes
the window online through :meth:`OpfInitiator.apply_window
<repro.core.initiator.OpfInitiator.apply_window>`.

:class:`DrainWatchdog` is the window's liveness guarantee under chaos: a
drain whose coalesced response is lost on the fabric would otherwise leave
its members queued forever (the window counter is already reset, so no new
draining flag is due).  The watchdog keeps one deadline per outstanding
drain CID and fires a callback — the initiator answers with a force-drain,
a flush carrying the DRAINING flag — so the window can never wedge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

#: The smallest window: every throughput-critical request drains.
MIN_WINDOW = 1

READ = "read"
WRITE = "write"
MIXED = "mixed"
_WORKLOADS = (READ, WRITE, MIXED)


def clamp_to_queue_depth(window: int, queue_depth: int) -> int:
    """Never let the window exceed half the queue depth.

    With ``window > queue_depth`` the initiator would exhaust its qpair
    before sending a draining flag and lock up (§IV-A); half keeps at least
    two windows pipelined.
    """
    return max(MIN_WINDOW, min(window, max(1, queue_depth // 2)))


def select_window(
    workload: str,
    network_gbps: float,
    tc_initiators: int = 1,
    queue_depth: int = 128,
) -> int:
    """Choose a coalescing window for the given operating point."""
    if workload not in _WORKLOADS:
        raise ConfigError(f"workload must be one of {_WORKLOADS}, got {workload!r}")
    if network_gbps <= 0:
        raise ConfigError("network speed must be positive")
    if tc_initiators < 1:
        raise ConfigError("need at least one throughput-critical initiator")
    if queue_depth < 1:
        raise ConfigError("queue depth must be positive")

    if network_gbps <= 10:
        # Saturated fabric: large windows delay drain completions behind
        # data traffic (Fig. 6b's 10 Gbps curve flattens then dips at 64).
        base = 16
    elif network_gbps <= 25:
        base = 32
    else:
        base = 32

    if workload == MIXED and tc_initiators <= 2:
        # Mixed read/write windows have high completion-time variance with
        # few tenants (Fig. 7b discussion); smaller windows bound it.
        base = min(base, 16)

    return clamp_to_queue_depth(base, queue_depth)


class DrainWatchdog:
    """Per-drain response deadlines (lost-coalesced-completion recovery).

    ``arm(cid)`` starts (or restarts) a deadline for one outstanding drain;
    ``disarm(cid)`` cancels it when the coalesced response arrives.  Like
    the command watchdogs in :mod:`repro.nvmeof.initiator`, deadline events
    are never cancelled: each carries ``(cid, token)`` and no-ops when a
    disarm or a re-arm superseded it, keeping the hot path allocation-free.
    """

    def __init__(
        self,
        env: "Environment",
        timeout_us: float,
        on_lost: Callable[[int], None],
    ) -> None:
        if timeout_us <= 0:
            raise ConfigError("drain watchdog timeout must be positive")
        self.env = env
        self.timeout_us = timeout_us
        self.on_lost = on_lost
        self._armed: Dict[int, int] = {}
        self._token = 0
        self.expired = 0

    @property
    def outstanding(self) -> int:
        return len(self._armed)

    def arm(self, drain_cid: int) -> None:
        """Start (or restart, superseding the old deadline) one drain's clock."""
        self._token += 1
        self._armed[drain_cid] = self._token
        self.env.call_later(self.timeout_us, self._on_deadline, (drain_cid, self._token))

    def disarm(self, drain_cid: int) -> None:
        self._armed.pop(drain_cid, None)

    def _on_deadline(self, token_pair) -> None:
        drain_cid, token = token_pair
        if self._armed.get(drain_cid) != token:
            return  # answered, or a newer attempt owns this drain
        del self._armed[drain_cid]
        self.expired += 1
        self.on_lost(drain_cid)
