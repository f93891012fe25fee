"""Closed-form queueing references used to validate the simulator.

Exact textbook results for the stations the DES is built from:

- M/M/1 and M/M/m (Erlang C) waiting times,
- M/D/1 (deterministic service) waiting time,
- M/G/1 (Pollaczek-Khinchine) mean waiting time,
- M/M/1/K (finite queue) blocking probability and mean waits -- the
  loss-system regime a bounded server queue creates under overload,
- the interactive response-time law for closed networks.

``tests/simulator/test_queueing.py`` drives the DES with the matching
arrival/service processes and checks it against these formulas -- the
strongest correctness evidence a home-grown simulator can offer.
"""

from __future__ import annotations

import math


def _check_utilization(rho: float) -> None:
    if not 0 <= rho < 1:
        raise ValueError(f"utilization must be in [0, 1), got {rho}")


def mm1_mean_wait(service_ms: float, rho: float) -> float:
    """M/M/1 mean queueing delay (excluding service)."""
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    _check_utilization(rho)
    return rho * service_ms / (1.0 - rho)


def md1_mean_wait(service_ms: float, rho: float) -> float:
    """M/D/1 mean queueing delay: half the M/M/1 value."""
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    _check_utilization(rho)
    return rho * service_ms / (2.0 * (1.0 - rho))


def mg1_mean_wait(service_ms: float, rho: float, service_cv2: float) -> float:
    """M/G/1 (Pollaczek-Khinchine) mean queueing delay.

    ``service_cv2`` is the squared coefficient of variation of the
    service time (0 = deterministic, 1 = exponential).
    """
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    if service_cv2 < 0:
        raise ValueError("squared CV must be >= 0")
    _check_utilization(rho)
    return rho * service_ms * (1.0 + service_cv2) / (2.0 * (1.0 - rho))


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C: probability an arrival must queue in M/M/m.

    ``offered_load`` is a = lambda * service (erlangs); requires
    ``a < servers`` for stability.
    """
    if servers <= 0:
        raise ValueError("server count must be positive")
    if offered_load < 0:
        raise ValueError("offered load must be >= 0")
    if offered_load >= servers:
        raise ValueError("offered load must be below the server count")
    # Numerically stable iterative form of the Erlang B recursion.
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho + rho * b)


def mmm_mean_wait(servers: int, service_ms: float, offered_load: float) -> float:
    """M/M/m mean queueing delay via Erlang C."""
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    pw = erlang_c(servers, offered_load)
    rho = offered_load / servers
    return pw * service_ms / (servers * (1.0 - rho))


def _check_mm1k(service_ms: float, rho: float, capacity: int) -> None:
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    if rho < 0:
        raise ValueError("utilization must be >= 0")
    if capacity < 1:
        raise ValueError("capacity must hold at least one request")


def mm1k_blocking_probability(rho: float, capacity: int) -> float:
    """M/M/1/K probability an arrival finds the system full (is dropped).

    ``capacity`` is K, the total number of requests the system holds
    (one in service plus K-1 waiting).  Unlike the infinite-queue
    formulas, ``rho`` may be >= 1: the finite system stays stable and
    simply drops more.  P_K = (1-rho) rho^K / (1 - rho^(K+1)), with the
    rho -> 1 limit 1/(K+1).
    """
    _check_mm1k(1.0, rho, capacity)
    if math.isclose(rho, 1.0):
        return 1.0 / (capacity + 1)
    return (1.0 - rho) * rho**capacity / (1.0 - rho ** (capacity + 1))


def mm1k_mean_number(rho: float, capacity: int) -> float:
    """M/M/1/K mean number of requests in the system (L)."""
    _check_mm1k(1.0, rho, capacity)
    k = capacity
    if math.isclose(rho, 1.0):
        return k / 2.0
    return rho / (1.0 - rho) - (k + 1) * rho ** (k + 1) / (1.0 - rho ** (k + 1))


def mm1k_mean_wait(service_ms: float, rho: float, capacity: int) -> float:
    """M/M/1/K mean queueing delay (excluding service) of *admitted* work.

    Little's law over the effective (non-dropped) arrival rate:
    W = L / lambda_eff - service, with lambda_eff = lambda (1 - P_K).
    """
    _check_mm1k(service_ms, rho, capacity)
    p_block = mm1k_blocking_probability(rho, capacity)
    lam_per_ms = rho / service_ms
    lam_eff = lam_per_ms * (1.0 - p_block)
    if lam_eff <= 0:
        return 0.0
    return mm1k_mean_number(rho, capacity) / lam_eff - service_ms


def mm1_sojourn_percentile_ms(service_ms: float, rho: float, quantile: float) -> float:
    """Exact M/M/1 FCFS sojourn-time percentile.

    The stationary response time (wait + service) of an M/M/1 FCFS
    queue is exponential with rate ``mu (1 - rho)``, so every quantile
    has a closed form: ``-mean_sojourn * ln(1 - q)``.
    :meth:`repro.simulator.openloop.OpenLoopSimulator.analytic_sojourn_ms`
    uses it as a run's own theoretical prediction.
    """
    if service_ms <= 0:
        raise ValueError("service time must be positive")
    _check_utilization(rho)
    if not 0.0 <= quantile < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {quantile}")
    mean_sojourn = service_ms / (1.0 - rho)
    return -mean_sojourn * math.log(1.0 - quantile)


def mm1k_sojourn_percentile_ms(
    service_ms: float, rho: float, capacity: int, quantile: float
) -> float:
    """M/M/1/K sojourn percentile under an exponential approximation.

    The admitted-work sojourn of a finite queue is a phase mixture (an
    Erlang ladder weighted by the truncated queue-length distribution),
    not exponential; matching its *mean* with an exponential tail is a
    documented approximation, validated against the DES in
    ``tests/simulator/test_queueing.py``.  For ``capacity`` large enough
    that blocking vanishes it converges to the exact
    :func:`mm1_sojourn_percentile_ms`.
    """
    _check_mm1k(service_ms, rho, capacity)
    if not 0.0 <= quantile < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {quantile}")
    mean_sojourn = mm1k_mean_wait(service_ms, rho, capacity) + service_ms
    return -mean_sojourn * math.log(1.0 - quantile)


def interactive_response_law(
    population: int, throughput_per_ms: float, think_ms: float
) -> float:
    """Closed-network response-time law: R = N/X - Z."""
    if population <= 0:
        raise ValueError("population must be positive")
    if throughput_per_ms <= 0:
        raise ValueError("throughput must be positive")
    if think_ms < 0:
        raise ValueError("think time must be >= 0")
    return population / throughput_per_ms - think_ms
