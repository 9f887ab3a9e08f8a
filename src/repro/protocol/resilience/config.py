"""Fixed tunables of the resilience layer.

The constants group the three concerns the layer balances:

* **detection** -- how quickly a channel is suspected and quarantined
  (review cadence, EWMA weight, loss/suspicion/stuck thresholds);
* **probing** -- how aggressively a quarantined channel is probed for
  reinstatement (initial interval, backoff, cap); one probe ack
  reinstates a channel;
* **repair** -- how much retransmission the bounded repair path may do
  (buffer size, per-symbol retry budget, backoff and jitter).

Values are in the simulator's unit times (1 unit = 10 ms on the paper's
axis) and deliberately conservative: quarantine needs two consecutive bad
reviews, probes back off exponentially, and repair gives each symbol at
most two extra rounds.
"""

#: Time between health reviews.
REVIEW_PERIOD = 1.0
#: EWMA weight on the newest loss/gap observation.
LOSS_ALPHA = 0.3
#: EWMA loss at which a channel becomes SUSPECT.
SUSPECT_LOSS = 0.5
#: EWMA loss at which a SUSPECT channel is quarantined.
QUARANTINE_LOSS = 0.75
#: Liveness suspicion (elapsed-since-evidence over the expected evidence
#: gap) at which a channel becomes SUSPECT.
SUSPECT_SUSPICION = 4.0
#: Suspicion at which a SUSPECT channel is quarantined.
QUARANTINE_SUSPICION = 8.0
#: Consecutive reviews with the port blocked and zero serialized packets
#: after which a SUSPECT channel is quarantined (one such review already
#: makes it SUSPECT).
STUCK_REVIEWS = 2
#: Consecutive clean reviews that return a SUSPECT channel to HEALTHY.
RECOVER_REVIEWS = 2

#: Delay from quarantine to the first probe; also the backoff base.
PROBE_INTERVAL = 1.0
#: Multiplicative probe-interval growth per probe.
PROBE_BACKOFF = 2.0
#: Cap on the probe interval.
PROBE_MAX_INTERVAL = 8.0

#: Sent symbols remembered for retransmission.  Must cover roughly
#: reassembly_timeout * symbol rate, or NACKed symbols fall out of the
#: buffer before their NACK arrives.
REPAIR_BUFFER_LIMIT = 4096
#: Repair rounds allowed per symbol.
REPAIR_RETRY_BUDGET = 2
#: Extra reassembly time granted per repair round.
REPAIR_WINDOW = 2.0
#: Sender-side delay before the first repair send.
REPAIR_BACKOFF = 0.25
#: Multiplicative growth of that delay per round.
REPAIR_BACKOFF_FACTOR = 2.0
#: Jitter fraction applied to each repair delay (drawn from a named
#: seeded stream, so runs stay reproducible).
REPAIR_JITTER = 0.25
