"""Build-and-stage helpers for the guest application fleet.

Building a binary means compiling MiniC, assembling, and linking
against libc — deterministic and side-effect free, so images are
memoized process-wide.  :func:`stage_*` helpers put a binary plus its
config files onto a concrete kernel and return the booted process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..binfmt.self_format import SelfImage
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from . import httpd_lighttpd, httpd_nginx, kvstore
from .libc import build_libc
from .spec import benchmark_names, get_benchmark


@lru_cache(maxsize=None)
def libc_image() -> SelfImage:
    return build_libc()


@lru_cache(maxsize=None)
def redis_image() -> SelfImage:
    return kvstore.build_miniredis(libc_image())


@lru_cache(maxsize=None)
def lighttpd_image() -> SelfImage:
    return httpd_lighttpd.build_minilight(libc_image())


@lru_cache(maxsize=None)
def nginx_image() -> SelfImage:
    return httpd_nginx.build_mininginx(libc_image())


@lru_cache(maxsize=None)
def spec_image(name: str) -> SelfImage:
    return get_benchmark(name).build(libc_image())


def all_images() -> dict[str, SelfImage]:
    """Every buildable binary, keyed by registry name."""
    images = {
        "libc.so": libc_image(),
        kvstore.REDIS_BINARY: redis_image(),
        httpd_lighttpd.LIGHTTPD_BINARY: lighttpd_image(),
        httpd_nginx.NGINX_BINARY: nginx_image(),
    }
    for name in benchmark_names():
        bench = get_benchmark(name)
        images[bench.binary] = spec_image(name)
    return images


# ----------------------------------------------------------------------
# staging helpers


def _boot(
    kernel: Kernel,
    image: SelfImage,
    run_to_ready: bool,
    ready: Callable[[Process], bool],
    bound: int,
    argv: list[str] | None = None,
) -> Process:
    """Register ``image`` (and libc), spawn it and, if asked, run the
    kernel until ``ready`` holds for the new process."""
    kernel.register_binary(libc_image())
    kernel.register_binary(image)
    proc = kernel.spawn(image.name, argv)
    if run_to_ready and not kernel.run_until(
        lambda: ready(proc), max_instructions=bound
    ):
        raise RuntimeError(f"{image.name} failed to reach ready state")
    return proc


def stage_redis(
    kernel: Kernel, run_to_ready: bool = True, port: int = kvstore.REDIS_PORT
) -> Process:
    """Configure and boot miniredis on ``kernel``."""
    kvstore.install_default_config(kernel.fs, port)
    return _boot(
        kernel, redis_image(), run_to_ready,
        lambda proc: kvstore.READY_LINE in proc.stdout_text(), 6_000_000,
    )


def stage_lighttpd(
    kernel: Kernel,
    run_to_ready: bool = True,
    port: int = httpd_lighttpd.LIGHTTPD_PORT,
    index_body: str = httpd_lighttpd.INDEX_BODY,
) -> Process:
    """Configure and boot minilight on ``kernel``."""
    httpd_lighttpd.install_default_config(kernel.fs, index_body, port)
    return _boot(
        kernel, lighttpd_image(), run_to_ready,
        lambda proc: httpd_lighttpd.READY_LINE in proc.stdout_text(), 6_000_000,
    )


def stage_nginx(
    kernel: Kernel,
    run_to_ready: bool = True,
    port: int = httpd_nginx.NGINX_PORT,
    index_body: str = httpd_nginx.INDEX_BODY,
) -> Process:
    """Configure and boot mininginx (master + worker); returns the master."""
    httpd_nginx.install_default_config(kernel.fs, index_body, port)

    def ready(master: Process) -> bool:
        return httpd_nginx.READY_LINE in master.stdout_text() and any(
            httpd_nginx.WORKER_LINE in p.stdout_text()
            for p in kernel.processes.values()
            if p.ppid == master.pid
        )

    return _boot(kernel, nginx_image(), run_to_ready, ready, 10_000_000)


def nginx_worker(kernel: Kernel, master: Process) -> Process:
    """The (live) worker process of a booted mininginx master."""
    for proc in kernel.processes.values():
        if proc.ppid == master.pid and proc.alive:
            return proc
    raise RuntimeError("no live mininginx worker")


def stage_spec(
    kernel: Kernel,
    name: str,
    iterations: int | None = None,
    run_to_init: bool = True,
) -> Process:
    """Register and boot a SPEC-like benchmark; stops at init-done."""
    from .spec.common import INIT_DONE_LINE

    image = spec_image(name)
    argv = [image.name] + ([] if iterations is None else [str(iterations)])
    return _boot(
        kernel, image, run_to_init,
        lambda proc: INIT_DONE_LINE in proc.stdout_text(), 10_000_000, argv,
    )
