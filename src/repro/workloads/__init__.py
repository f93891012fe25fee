"""The warehouse-computing benchmark suite (paper Table 1).

Four workloads represent the different services in internet-sector
datacenters:

- :mod:`~repro.workloads.websearch` -- unstructured data processing
  (Nutch/Tomcat/Apache; Zipf keyword queries over a 1.3 GB index).
- :mod:`~repro.workloads.webmail` -- interactive internet services
  (SquirrelMail/IMAP; LoadSim heavy-usage session model).
- :mod:`~repro.workloads.ytube` -- rich media (SPECweb2005-Support driven
  with YouTube edge-traffic characteristics).
- :mod:`~repro.workloads.mapreduce` -- web as a platform (Hadoop word-count
  and distributed-write jobs).

Each workload is a :class:`~repro.workloads.base.Workload`: a statistical
request generator plus a performance metric and QoS definition.  Requests
carry platform-independent resource demands (CPU milliseconds on the
reference core, memory-channel milliseconds, disk I/Os and bytes, network
bytes) that :mod:`repro.simulator` converts into per-platform service
times.
"""

from repro.workloads.base import (
    MetricKind,
    PopulationPolicy,
    Request,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec, QosTracker
from repro.workloads.zipf import ZipfSampler, zipf_weights
from repro.workloads.websearch import make_websearch
from repro.workloads.webmail import make_webmail
from repro.workloads.ytube import make_ytube
from repro.workloads.mapreduce import make_mapred_wc, make_mapred_wr
from repro.workloads.suite import BENCHMARK_SUITE, benchmark_names, make_workload
from repro.workloads.client import ClientDriver, ClientDriverReport

__all__ = [
    "MetricKind",
    "PopulationPolicy",
    "Request",
    "ResourceDemand",
    "Workload",
    "WorkloadProfile",
    "QosSpec",
    "QosTracker",
    "ZipfSampler",
    "zipf_weights",
    "make_websearch",
    "make_webmail",
    "make_ytube",
    "make_mapred_wc",
    "make_mapred_wr",
    "BENCHMARK_SUITE",
    "benchmark_names",
    "make_workload",
    "ClientDriver",
    "ClientDriverReport",
]
