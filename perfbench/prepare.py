"""Set-up shared by the timed run and the ``setup_s`` probe.

Run as a script it is the probe: a fresh process that imports what the
workload needs, builds its devices and kernels, computes their golden
outputs and, for ``service-mix``, boots the service until ``/readyz``
answers; then it prints ``ready`` and tears down.  :class:`Probes` times
each probe from process start to that line, with the probes spread over
the timed loop.

    python3 perfbench/prepare.py --workload service-mix
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 6


def prepare(workload: str) -> None:
    """Imports, devices, kernels and golden outputs of the workload."""
    import repro.beam.logs  # noqa: F401  (result fetches)
    import repro.store  # noqa: F401  (the durable path)
    from repro.arch.registry import make_device
    from repro.kernels.registry import make_kernel

    from perfbench import workloads

    if workload == "service-mix":
        import repro.service  # noqa: F401
    for device in workloads.devices(workload):
        make_device(device)
    for kernel, config in workloads.kernel_configs(workload):
        make_kernel(kernel, **config).golden()


class Probes:
    """Set-up probes spread evenly over a timed loop of ``seconds``.

    The host's speed drifts over tens of seconds, so probes run back to
    back all sample one moment of it.  The loop instead asks between two
    campaigns (or ``service-mix`` blocks) whether a probe is due (:meth:`due`, given the timed seconds
    so far), runs it with its clock stopped (:meth:`run`), and runs any
    probe still owed when it ends (:meth:`finish`).
    """

    def __init__(self, workload: str, seconds: float,
                 repeats: int = SETUP_REPEATS):
        self.workload = workload
        self.marks = [seconds * i / repeats for i in range(repeats)]
        self.samples: list = []

    def due(self, timed: float) -> bool:
        return len(self.samples) < len(self.marks) and (
            timed >= self.marks[len(self.samples)]
        )

    def run(self) -> None:
        """Seconds from process start until one fresh probe is ready."""
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", self.workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        finally:
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"set-up probe for {self.workload} failed ({code})"
            )
        self.samples.append(elapsed)

    def finish(self) -> None:
        while len(self.samples) < len(self.marks):
            self.run()


class Service:
    """An in-process campaign service on an ephemeral port, default config."""

    def __init__(self, store: Path):
        from repro.service import (
            CampaignService, ServiceClient, ServiceConfig, ServiceServer,
        )

        config = ServiceConfig(host="127.0.0.1", port=0, store=str(store))
        self.service = CampaignService(config)
        self.service.start()
        self.server = ServiceServer(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http",
            daemon=True,
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.port}"
        probe = ServiceClient(self.url)
        deadline = time.monotonic() + 30.0
        while not probe.ready():
            if time.monotonic() >= deadline:
                self.close()
                raise RuntimeError(f"service at {self.url} never became ready")
            time.sleep(0.005)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30.0)
        self.service.shutdown(timeout=60.0)


def main(argv=None) -> int:
    import argparse
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    prepare(args.workload)
    service = scratch = None
    if args.workload == "service-mix":
        work = ROOT / ".perfbench"
        work.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=work))
        service = Service(scratch / "store")
    print("ready", flush=True)
    if service is not None:
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
