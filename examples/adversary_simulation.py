"""Adversary simulation: validate the privacy model against a real attacker.

The model says an adversary observing channel i with probability z_i learns
a symbol exactly when it captures k or more of its shares, so the per-symbol
compromise probability is the Poisson-binomial tail z(k, M) (Sec. IV-A).
This example doesn't take that on faith: it attaches a wire-tapping
eavesdropper to the simulated links, lets it *actually reconstruct* secrets
from captured Shamir shares, and compares the empirical compromise rate to
the model across the threshold range.

Run:  python examples/adversary_simulation.py
"""

from repro.adversary import Eavesdropper
from repro.core import ChannelSet, subset_risk
from repro.netsim import RngRegistry
from repro.protocol import PointToPointNetwork, ProtocolConfig
from repro.sharing import ShamirScheme

RISKS = [0.45, 0.30, 0.25, 0.40]
SYMBOLS = 4000
SYMBOL_SIZE = 64

channels = ChannelSet.from_vectors(
    risks=RISKS,
    losses=[0.0] * 4,
    delays=[0.001] * 4,
    rates=[100.0] * 4,
)

print(f"Channels tapped with probabilities {RISKS}; {SYMBOLS} secrets per run.\n")
header = f"{'k':>3}  {'predicted z(k, C)':>18}  {'empirical':>10}  {'reconstructed':>13}"
print(header)
print("-" * len(header))

for k in range(1, 5):
    registry = RngRegistry(1000 + k)
    network = PointToPointNetwork(channels, SYMBOL_SIZE, registry)
    config = ProtocolConfig(kappa=float(k), mu=4.0, symbol_size=SYMBOL_SIZE)
    node_a, node_b = network.node_pair(config, registry)
    adversary = Eavesdropper(
        links=[duplex.forward for duplex in network.duplex],
        risks=RISKS,
        rng=registry.stream("adversary"),
        scheme=ShamirScheme(),
    )

    originals = {}
    payload_rng = registry.stream("secrets")
    counter = {"sent": 0}

    def offer():
        payload = payload_rng.bytes(SYMBOL_SIZE)
        if node_a.send(payload):
            originals[(0, counter["sent"])] = payload
            counter["sent"] += 1

    engine = network.engine
    t = 0.0
    for _ in range(SYMBOLS):
        engine.schedule_at(t, offer)
        t += 0.02
    engine.run_until(t + 5.0)

    predicted = subset_risk(channels, k, range(4))
    empirical = adversary.compromise_rate(node_a.sender.stats.symbols_sent)
    verified = adversary.verify_plaintexts(originals)
    print(
        f"{k:>3}  {predicted:>18.4f}  {empirical:>10.4f}  "
        f"{'all correct' if verified else 'MISMATCH':>13}"
    )

print(
    "\nEvery reconstruction the adversary performed was checked against the"
    "\ntrue plaintext: the compromise counts above are ground truth, not an"
    "\nassumption about Shamir's scheme.  Raising k from 1 to n drives the"
    "\nadversary's success rate from the per-channel risk level down to the"
    "\nproduct of all risks -- the paper's privacy knob, measured."
)
