"""Webmail: interactive internet services (paper Table 1, row 2).

Models the paper's SquirrelMail/Apache/PHP4 benchmark with Courier-IMAP
and Exim backends: 1,000 virtual users with 7 GB of stored mail, sessions
modelled after the MS Exchange 2003 LoadSim "heavy user" profile.  Clients
interact in sessions of actions (login, read, reply/forward/delete/move,
compose, send).  QoS requires >95% of requests under 0.8 seconds.

Each *request* is one session action.  PHP interpretation makes every
action CPU-heavy (the paper observes webmail is the most CPU-sensitive
benchmark); reads and attachment downloads add backend IMAP traffic (our
network component), and mailbox access adds disk I/O.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import exp, log
from typing import List, Sequence

from repro.workloads._calibrate import calibrated_draw
from repro.workloads.base import (
    NV_MAGICCONST,
    DemandDraw,
    MetricKind,
    PopulationPolicy,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec

#: Calibrated mean per-action demand (see DESIGN.md).
MEAN_DEMAND = ResourceDemand(
    cpu_ms_ref=70.0,
    mem_ms_ref=30.0,
    disk_ios=2.0,
    disk_bytes=375_000.0,
    net_bytes=200_000.0,
)

#: Paper QoS: >95% of requests take < 0.8 seconds.
QOS = QosSpec(limit_ms=800.0, percentile=0.95)

THINK_TIME_MS = 2000.0
DEFAULT_POPULATION = 96

#: PHP/webmail code is the most cache- and CPU-sensitive in the suite.
CACHE_SENSITIVITY = 0.20
INORDER_IPC = 0.45
#: PHP interpretation: moderate fixed-latency stall share.
STALL_FRACTION = 0.25


@dataclass(frozen=True)
class MailAction:
    """One LoadSim-style action with relative (unitless) demand weights."""

    name: str
    weight: float  # relative frequency in the heavy-user profile
    cpu: float
    disk_ios: float
    disk_bytes: float
    net_bytes: float
    attachment_prob: float = 0.0


#: Heavy-user action mix, modeled after the Exchange 2003 LoadSim profile
#: the paper cites: reads dominate, with substantial compose/reply and
#: housekeeping (delete/move) traffic.
ACTION_MIX: List[MailAction] = [
    MailAction("login", weight=0.04, cpu=1.2, disk_ios=2.0, disk_bytes=0.3, net_bytes=0.3),
    MailAction("list-folder", weight=0.18, cpu=0.8, disk_ios=1.5, disk_bytes=0.6, net_bytes=0.5),
    MailAction("read-message", weight=0.34, cpu=1.0, disk_ios=1.0, disk_bytes=1.0,
               net_bytes=1.0, attachment_prob=0.25),
    MailAction("reply-forward", weight=0.12, cpu=1.4, disk_ios=1.2, disk_bytes=0.8, net_bytes=1.2),
    MailAction("compose-send", weight=0.10, cpu=1.5, disk_ios=1.5, disk_bytes=1.0,
               net_bytes=1.5, attachment_prob=0.15),
    MailAction("delete-move", weight=0.14, cpu=0.7, disk_ios=2.0, disk_bytes=0.4, net_bytes=0.2),
    MailAction("logout", weight=0.08, cpu=0.5, disk_ios=0.5, disk_bytes=0.1, net_bytes=0.1),
]

#: Attachment size multiplier relative to a plain message body.
ATTACHMENT_BYTES_FACTOR = 8.0


class _SessionModel:
    """Structural (pre-calibration) action model."""

    def __init__(self) -> None:
        # A weighted linear scan over the action mix, as cumulative
        # edges summed left to right, and their total.
        weights = [a.weight for a in ACTION_MIX]
        self._total = sum(weights)
        self._edges: List[float] = []
        edge = 0.0
        for weight in weights:
            edge += weight
            self._edges.append(edge)

    def draw(self, factors: Sequence[float]) -> DemandDraw:
        """One action's demand draw, each component scaled by ``factors``.

        The ``random.Random`` calls are inlined as in websearch's draw:
        the same uniforms, in the same order, give bitwise the values of
        the scan and of ``lognormvariate`` (CPython's Kinderman-Monahan
        loop).
        """
        total = self._total
        edges = self._edges
        # (cpu, disk I/Os, disk bytes, net bytes, attachment chance, name)
        # per action; a uniform past the last edge by round-off takes the
        # last action, as the scan does.
        actions = [
            (a.cpu, a.disk_ios, a.disk_bytes, a.net_bytes, a.attachment_prob,
             a.name)
            for a in ACTION_MIX + ACTION_MIX[-1:]
        ]
        f_cpu, f_mem, f_ios, f_dbytes, f_net = factors
        nv = NV_MAGICCONST
        _bisect = bisect_right
        _exp = exp
        _log = log

        def draw(rng: random.Random) -> tuple:
            r = rng.random
            # The first action whose edge lies above the uniform.
            cpu_w, ios, dbytes, nbytes, attachment_prob, name = actions[
                _bisect(edges, r() * total)
            ]
            while True:  # lognormvariate(0.0, 0.3)
                u1 = r()
                u2 = 1.0 - r()
                z = nv * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            noise = _exp(z * 0.3)
            attachment = r() < attachment_prob
            bytes_factor = ATTACHMENT_BYTES_FACTOR if attachment else 1.0
            cpu = cpu_w * noise
            return (
                cpu * f_cpu,
                cpu * f_mem,  # PHP string churn: memory tracks CPU work
                ios * (0.5 + r()) * f_ios,
                dbytes * bytes_factor * noise * f_dbytes,
                nbytes * bytes_factor * noise * f_net,
                False,
                1,
                name,
            )

        return draw


def make_webmail() -> Workload:
    """Build the webmail benchmark with calibrated mean demands."""
    profile = WorkloadProfile(
        name="webmail",
        description=(
            "Squirrelmail v1.4.9 with Apache2 and PHP4, Courier-IMAP v4.2 "
            "and Exim4.5. 1000 virtual users with 7GB of mail stored; "
            "usage patterns after MS Exchange 2003 LoadSim heavy users."
        ),
        emphasizes="interactive internet services",
        metric_kind=MetricKind.RPS_QOS,
        mean_demand=MEAN_DEMAND,
        population=PopulationPolicy(fixed=DEFAULT_POPULATION),
        qos=QOS,
        think_time_ms=THINK_TIME_MS,
        cache_sensitivity=CACHE_SENSITIVITY,
        inorder_ipc_factor=INORDER_IPC,
        stall_fraction=STALL_FRACTION,
    )
    return Workload(profile, draw=calibrated_draw(_SessionModel().draw, MEAN_DEMAND))
