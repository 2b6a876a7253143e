"""Markov blankets and single-sensor validation on the reference network.

Loads the five-sensor network shipped in fixtures/, prints each sensor's
blanket and extended blanket, then validates one clean reading and one
reading with an injected severe fault.
"""

from pathlib import Path

import sensorval as sv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

net = sv.load_network((FIXTURES / "reference_net.json").read_text())
disc = sv.discretizer_from_json((FIXTURES / "reference_net.disc.json").read_text())
readings = sv.Dataset.from_csv((FIXTURES / "reference_readings.csv").read_text())

print("edges:", net.edges)
for s in net.names():
    mb = sorted(sv.markov_blanket(net, s))
    emb = sorted(sv.extended_markov_blanket(net, s))
    print(f"  {s}: blanket {mb}, extended {emb}")

criterion = sv.DetectionCriterion("sigma", 3.0)
row = readings.row(10)
print("\nclean reading:", {k: round(v, 3) for k, v in row.items()})
for s in net.names():
    status = sv.validate_sensor(net, disc, row, s, criterion)
    print(f"  validate {s}: {status.status}")

faulted = sv.inject_fault(row, sv.FaultSpec("t", "severe"), disc)
print(f"\nsame reading with t forced to {faulted['t']:.3f}:")
for s in net.names():
    status = sv.validate_sensor(net, disc, faulted, s, criterion)
    note = ""
    if status.faulty and s != "t":
        note = "  <- apparent fault: t is in this sensor's blanket"
    print(f"  validate {s}: {status.status}{note}")

# the moments of g's prediction over its interval midpoints, which the
# sigma criterion compares the reading with
p = sv.predict_distribution(net, disc, faulted, "g").probabilities
mids = disc.midpoints("g")
mu = float((p * mids).sum())
sd = float((p * (mids - mu) ** 2).sum()) ** 0.5
print(f"\ng's prediction from its blanket: mean {mu:.3f}, std {sd:.3f}, "
      f"actual {faulted['g']:.3f}")
