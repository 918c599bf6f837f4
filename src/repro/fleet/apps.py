"""Per-application adapters for the fleet control plane.

The :class:`FleetController` is app-agnostic; everything server-specific
lives in an adapter:

* **staging** an instance on an arbitrary port (each guest reads its
  port from its config file during init, so staging rewrites the
  config immediately before each spawn — instance *i* boots with its
  own port, then the file is free for instance *i+1*);
* the **wanted request** (the health probe's and balancer workload's
  unit of service) and the **feature request** (exercising the code a
  policy removes);
* the **profiling corpus** of the app's one removable feature
  (:mod:`repro.workloads.corpus`): profiled once on a scratch kernel
  into the feature's unique blocks.  Offsets are module-relative and
  every instance runs the same binary image, so one profile serves the
  whole fleet — it is memoized process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..apps import httpd_lighttpd, httpd_nginx, kvstore
from ..apps import stage_lighttpd, stage_nginx, stage_redis
from ..core import FeatureBlocks
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..workloads import HttpClient, RedisClient
from ..workloads.corpus import CORPORA, Corpus, profile


class FleetAppError(RuntimeError):
    """Unknown app or feature, or an instance that failed to stage."""


@dataclass(frozen=True)
class FleetApp:
    """One server program the fleet knows how to run and profile."""

    name: str
    binary: str
    default_port: int
    #: symbol of the app's error arm (redirect trap target)
    redirect_symbol: str
    #: boot one instance listening on ``port``; returns the root process
    stage: Callable[[Kernel, int], Process]
    #: issue one wanted request; True on success
    wanted_request: Callable[[Kernel, int], bool]
    #: exercise the feature once; True when the feature was *served*
    feature_request: Callable[[Kernel, int], bool]
    #: the profiling corpus of the one feature this adapter removes
    corpus: Corpus

    @property
    def feature(self) -> str:
        return self.corpus.feature


#: the index page every fleet web server serves
FLEET_INDEX = "<h1>fleet</h1>"


# ----------------------------------------------------------------------
# web servers (minilight, mininginx)


def _http_wanted(kernel: Kernel, port: int) -> bool:
    return HttpClient(kernel, port).get("/").status == 200


def _probe_serial(kernel: Kernel) -> int:
    """Per-kernel probe serial.

    The serial lands in the request path, and the path's *length*
    reaches the guest's string loops — so it must be a function of the
    kernel, never of process-global history, or two identically-seeded
    runs in one interpreter drift apart on the virtual clock.
    """
    serial = getattr(kernel, "_fleet_probe_serial", 0) + 1
    kernel._fleet_probe_serial = serial
    return serial


def _http_dav_request(kernel: Kernel, port: int) -> bool:
    path = f"/fleet-probe-{_probe_serial(kernel)}.txt"
    client = HttpClient(kernel, port)
    response = client.put(path, "x")
    if response.status != 201:
        return False
    return client.delete(path).status == 204


# ----------------------------------------------------------------------
# miniredis (single-process kv store)


def _redis_wanted(kernel: Kernel, port: int) -> bool:
    client = RedisClient(kernel, port)
    try:
        return client.ping()
    finally:
        client.close()


def _redis_feature(kernel: Kernel, port: int) -> bool:
    client = RedisClient(kernel, port)
    try:
        return client.set("fleet-probe", "v")
    finally:
        client.close()


# ----------------------------------------------------------------------
# registry

LIGHTTPD_APP = FleetApp(
    name="lighttpd",
    binary=httpd_lighttpd.LIGHTTPD_BINARY,
    default_port=9000,
    redirect_symbol=httpd_lighttpd.FORBIDDEN_SYMBOL,
    stage=lambda kernel, port: stage_lighttpd(
        kernel, port=port, index_body=FLEET_INDEX
    ),
    wanted_request=_http_wanted,
    feature_request=_http_dav_request,
    corpus=CORPORA["fleet-lighttpd"],
)

NGINX_APP = FleetApp(
    name="nginx",
    binary=httpd_nginx.NGINX_BINARY,
    default_port=9300,
    redirect_symbol=httpd_nginx.FORBIDDEN_SYMBOL,
    stage=lambda kernel, port: stage_nginx(
        kernel, port=port, index_body=FLEET_INDEX
    ),
    wanted_request=_http_wanted,
    feature_request=_http_dav_request,
    corpus=CORPORA["fleet-nginx"],
)

REDIS_APP = FleetApp(
    name="redis",
    binary=kvstore.REDIS_BINARY,
    default_port=9600,
    redirect_symbol="redis_unknown_cmd",
    stage=lambda kernel, port: stage_redis(kernel, port=port),
    wanted_request=_redis_wanted,
    feature_request=_redis_feature,
    corpus=CORPORA["fleet-redis"],
)

FLEET_APPS: dict[str, FleetApp] = {
    app.name: app for app in (LIGHTTPD_APP, NGINX_APP, REDIS_APP)
}


def get_app(name: str) -> FleetApp:
    app = FLEET_APPS.get(name)
    if app is None:
        raise FleetAppError(
            f"unknown fleet app {name!r}; known: {', '.join(sorted(FLEET_APPS))}"
        )
    return app


#: each app's feature profile, by app name
_PROFILE_CACHE: dict[str, FeatureBlocks] = {}


def profile_feature(app: FleetApp, feature: str) -> FeatureBlocks:
    """Memoized profile of the app's feature (one scratch-kernel run per
    process); any other feature name is refused."""
    if feature != app.feature:
        raise FleetAppError(
            f"app {app.name!r} has no profiling corpus for feature "
            f"{feature!r}; it removes {app.feature!r}"
        )
    cached = _PROFILE_CACHE.get(app.name)
    if cached is None:
        cached = _PROFILE_CACHE[app.name] = profile(app.corpus).feature
    return cached
