"""Transparent tunnelling: carrying arbitrary traffic through ReMICSS.

The real ReMICSS intercepts IP packets below the transport layer (via the
DIBS bump-in-the-stack), so applications need no changes and any IP-based
protocol -- not only TCP -- can be protected.  This example reproduces that
experience with the :class:`~repro.protocol.dibs.DibsInterceptor` shim: a
mock application exchanges variable-size "HTTP-ish" messages while every
byte actually crosses the network as threshold-shared symbols over three
channels, one of them quite lossy.  It then replays the synthetic web,
streaming and messaging traces of :mod:`repro.workloads.traces` through
the same tunnel setup.

Run:  python examples/transparent_tunnel.py
(exits 1 if any message arrives altered or not at all, or if any
delivered trace datagram is altered; loss may drop a trace datagram)
"""

import sys

from repro.core import ChannelSet
from repro.netsim import RngRegistry
from repro.protocol import DibsInterceptor, PointToPointNetwork, ProtocolConfig
from repro.workloads.traces import run_trace

channels = ChannelSet.from_vectors(
    risks=[0.3, 0.3, 0.3],
    losses=[0.01, 0.002, 0.05],
    delays=[0.02, 0.05, 0.01],
    rates=[80.0, 50.0, 70.0],
    names=["fiber", "dsl", "wifi"],
)

registry = RngRegistry(7)
network = PointToPointNetwork(channels, symbol_size=256, rng_registry=registry)
# κ = 2 of µ = 3: an adversary needs two channels; one lost share per
# symbol is tolerated without retransmission.
config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=256, reassembly_timeout=20.0)
client_node, server_node = network.node_pair(config, registry)

# Wire the interceptors: whatever goes in one side comes out the other.
server_log = []
server_rx = DibsInterceptor(server_node, on_datagram=server_log.append)
client_tx = DibsInterceptor(client_node)

requests = [
    b"GET /manifesto.txt HTTP/1.1\r\nHost: example.org\r\n\r\n",
    b"POST /plans HTTP/1.1\r\nContent-Length: 600\r\n\r\n" + bytes(range(256)) * 2 + b"x" * 88,
    b"GET /small HTTP/1.1\r\n\r\n",
    b"PUT /big HTTP/1.1\r\nContent-Length: 2000\r\n\r\n" + b"A" * 2000,
]

for request in requests:
    client_tx.intercept(request)
client_tx.flush()

network.engine.run_until(60.0)

print("=== Transparent tunnel over 3 shared channels (κ=2, µ=3) ===\n")
for i, (sent, got) in enumerate(zip(requests, server_log)):
    status = "OK" if sent == got else "CORRUPTED"
    first_line = got.split(b"\r\n", 1)[0].decode(errors="replace")
    print(f"  message {i}: {len(got):>5} bytes  [{status}]  {first_line}")

print(f"\n  datagrams sent: {client_tx.datagrams_sent}")
print(f"  datagrams delivered intact: {server_rx.datagrams_delivered}")
print(f"  protocol symbols delivered: {server_node.receiver.stats.symbols_delivered}")
print(f"  symbols lost to channel loss: {server_node.receiver.stats.evicted_symbols}")
print(
    "\nThe application above never mentioned shares, channels or thresholds --"
    "\nthe interception shim segments, shares, transmits, reassembles and"
    "\nreorders everything, which is the transport-agnostic design point of"
    "\nSec. V (DIBS instead of TCP interception)."
)

print("\n=== Application traces through the same channels and config (30 units) ===\n")
altered = []
for kind in ("web", "streaming", "messaging"):
    result = run_trace(channels, config, kind=kind, duration=30.0, seed=7)
    print(
        f"  {kind:<9} sent {result.sent:>4}  delivered {result.delivered:>4}  "
        f"intact {result.intact:>4}"
    )
    if result.intact != result.delivered:
        altered.append(kind)

if server_log != requests:
    sys.exit("tunnel FAILED: the server did not receive exactly the messages sent")
if altered:
    sys.exit(f"tunnel FAILED: altered datagrams in the {', '.join(altered)} trace")
