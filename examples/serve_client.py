#!/usr/bin/env python3
"""Simulation as a service: a session against a `repro-serve` daemon.

Hosts a daemon in-process (so the example is self-contained), then
walks the client API: run a named experiment through a session (twice,
to see a rerun reproduce it), drive a raw request stream, and bounce
off the per-tenant quota.

Run:  python examples/serve_client.py

Against an external daemon, start one first (`repro-serve daemon
--port 7421`) and point `ServeClient` at it instead of
`running_daemon`.
"""

from repro.serve import ServeClient
from repro.serve.server import running_daemon
from repro.tools.serve_cli import payload_fingerprint

EXPERIMENT = "fig1"
STREAM_OPS = [
    {"op": "read", "addr": 0, "count": 2048, "stride": 64},
    {"op": "write", "addr": 0, "count": 1024, "stride": 64},
    {"op": "fence"},
]


def main() -> None:
    with running_daemon(workers=2, max_active=1,
                        max_queued=1) as daemon:
        print(f"daemon up on 127.0.0.1:{daemon.port}")

        with ServeClient("127.0.0.1", daemon.port,
                         tenant="example") as client:
            print(f"session {client.session} "
                  f"(protocol {client.welcome['protocol']}, "
                  f"limits {client.welcome['limits']})")

            # A named experiment, exactly as the batch runner computes
            # it -- the served payload is bit-identical.
            reply = client.run_experiment(EXPERIMENT, seed=42)
            doc = reply["results"][0]
            print(f"\n{doc['experiment']}: {doc['title']}")
            for key, value in list(doc["metrics"].items())[:4]:
                print(f"  {key}: {value}")
            print(f"  manifest session: {reply['manifest']['session']}")

            # Run it again: the worker process persists, but every job
            # builds its targets fresh, so the rerun reproduces the run.
            again = client.run_experiment(EXPERIMENT, seed=42)
            assert ([payload_fingerprint(d) for d in again["results"]]
                    == [payload_fingerprint(d) for d in reply["results"]]), \
                "a rerun must be bit-identical"
            print(f"\nrerun on worker {again['worker_pid']}: "
                  f"payload identical to the first run")

            # A raw request stream against any registry target.
            stream = client.run_stream("vans", STREAM_OPS)["stream"]
            print(f"\nstream on vans: {stream['ops']} ops, "
                  f"sim end {stream['sim_end_ps']} ps, "
                  f"mean latency {stream['mean_latency_ps']:.0f} ps")

            # Backpressure: this daemon allows 1 active + 1 queued job
            # per tenant, so a third concurrent submit is rejected with
            # a 429-style reply instead of buffering without bound.
            busy = [{"op": "read", "count": 20_000, "stride": 64}]
            first = client.submit_stream("vans", busy)
            second = client.submit_stream("vans", busy)
            third = client.submit_stream("vans", busy)
            rejection = client.wait(third, raise_on_error=False)
            print(f"\nthird concurrent submit: {rejection['type']} "
                  f"(code {rejection['code']})")
            client.wait(first)
            client.wait(second)

    print("\ndaemon drained and shut down cleanly")


if __name__ == "__main__":
    main()
