"""Sharded front-end process for the ``sharded_batches`` workload.

A :class:`~repro.service.app.RetrievalService` whose one tenant is
distributed: each session runs a
:class:`~repro.core.coordinator.QueryCoordinator` that scatters to the shard
server processes named on the command line.  Prints ``HOST PORT`` once
listening and drains on SIGTERM, like the shard servers it fronts::

    python perfbench/bench/frontend.py --sharded ROOT --organization ORG.json \\
        --tenant bench --replica 127.0.0.1:40001 --replica 127.0.0.1:40002
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core.partitioning import load_sharded  # noqa: E402
from repro.service.app import RetrievalService, ServiceConfig  # noqa: E402
from repro.service.wire import decode_organization  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sharded", required=True, help="save_sharded layout root")
    parser.add_argument("--organization", required=True, help="encoded organisation JSON")
    parser.add_argument("--tenant", default="bench")
    parser.add_argument(
        "--replica", action="append", required=True, metavar="HOST:PORT",
        help="shard server address, one per shard in shard order",
    )
    parser.add_argument("--host", default="127.0.0.1")
    return parser.parse_args(argv)


async def serve(args: argparse.Namespace) -> None:
    layout = load_sharded(args.sharded)
    organization = decode_organization(json.loads(Path(args.organization).read_text()))
    replicas = []
    for spec in args.replica:
        host, _, port = spec.rpartition(":")
        replicas.append([(host, int(port))])
    if len(replicas) != layout.num_shards:
        raise SystemExit(f"{layout.num_shards} shards but {len(replicas)} replicas given")
    service = RetrievalService(ServiceConfig(host=args.host, port=0))
    service.add_distributed_tenant(
        args.tenant,
        organization=organization,
        partitioner=layout.partitioner,
        replicas=replicas,
        expected_epochs=layout.epochs,
    )
    host, port = await service.start()
    print(f"{host} {port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    await service.drain()


if __name__ == "__main__":
    asyncio.run(serve(parse_args()))
