"""Reference oracle: the ``Request``-building webmail sampler.

This is ``repro.workloads.webmail`` as it stood before the tuple demand
draws (only the probe import points at ``reference_calibrate``), kept so
``test_base.py`` can require the draw to reproduce it bitwise.  The rest
of this docstring is the original module's.

Webmail: interactive internet services (paper Table 1, row 2).

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
from dataclasses import dataclass
from typing import List

from tests.workloads.reference_calibrate import calibrated_sampler
from repro.workloads.base import (
    MetricKind,
    PopulationPolicy,
    Request,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec
from tests.workloads.reference_discrete import discrete_sample

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


class SessionGenerator:
    """Generates coherent user sessions (login ... actions ... logout).

    The benchmark's clients "interact with the servers in sessions, each
    consisting of a sequence of actions".  The throughput model samples
    actions i.i.d. from the stationary mix (equivalent in steady state);
    this generator produces the *ordered* sequences -- useful for
    session-level analyses and for validating that the stationary mix
    matches the session structure.

    A session is ``login``, then a geometric number of body actions drawn
    from the body mix, then ``logout``.
    """

    def __init__(self, mean_body_actions: float = 11.0):
        if mean_body_actions < 1.0:
            raise ValueError("sessions have at least one body action")
        self._body_actions = [
            a for a in ACTION_MIX if a.name not in ("login", "logout")
        ]
        self._body_weights = [a.weight for a in self._body_actions]
        # Geometric with minimum 1: mean = 1 / (1 - p) = mean_body_actions.
        self._continue_prob = 1.0 - 1.0 / mean_body_actions

    def session(self, rng: random.Random) -> List[str]:
        """One ordered session as a list of action names."""
        actions = ["login"]
        while True:
            index = discrete_sample(self._body_weights, rng)
            actions.append(self._body_actions[index].name)
            if rng.random() >= self._continue_prob:
                break
        actions.append("logout")
        return actions


class _SessionModel:
    """Structural (pre-calibration) action sampler."""

    def __init__(self) -> None:
        self._weights = [a.weight for a in ACTION_MIX]

    def __call__(self, rng: random.Random) -> Request:
        action = ACTION_MIX[discrete_sample(self._weights, rng)]
        noise = rng.lognormvariate(0.0, 0.3)
        attachment = rng.random() < action.attachment_prob
        bytes_factor = ATTACHMENT_BYTES_FACTOR if attachment else 1.0
        cpu = action.cpu * noise
        return Request(
            demand=ResourceDemand(
                cpu_ms_ref=cpu,
                mem_ms_ref=cpu,  # PHP string churn: memory tracks CPU work
                disk_ios=action.disk_ios * (0.5 + rng.random()),
                disk_bytes=action.disk_bytes * bytes_factor * noise,
                net_bytes=action.net_bytes * bytes_factor * noise,
            ),
            kind=action.name,
        )


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
    return Workload(profile, calibrated_sampler(_SessionModel(), MEAN_DEMAND))
