"""Pessimistic policy search: maximize a lower confidence bound.

Point estimates overvalue policies the behavior data barely covers; the
learner instead scores each candidate by the minimum of its estimated value
over confidence regions around every fitted block, then takes the argmax.
The all-center member chain makes the bound never exceed the plug-in value,
and as the sample grows the regions shrink and the learned pair converges to
the in-class optimum.
"""

import confgame
from confgame import fixtures, learner, oracle, sieve

spec = fixtures.t1_spec()
basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
pairs = confgame.stationary_deterministic_pairs(spec)
_, j_star = oracle.exact_optimal_pair(spec, pairs)
print(f"candidate pairs: {len(pairs)}, in-class optimum J* = {j_star:.4f}\n")

for n in (500, 4_000, 32_000):
    ds = confgame.simulate_dataset(spec, n=n, seed=11)
    engine = learner.LearnerEngine(ds, basis, learner.EtaConfig())
    best, pv = learner.learn_policy_pair(ds, pairs, basis, engine=engine)
    gap = learner.compute_gap(spec, best, pairs)
    print(
        f"n = {n:>6}: pessimistic value {pv.value:+.4f}  plug-in {pv.plug_in:+.4f}"
        f"  oracle gap {gap:.4f}"
    )

ds = confgame.simulate_dataset(spec, n=4_000, seed=11)
pol = confgame.constant_policy_pair(spec, 1.0, 0.5, 0.5)
print("\nregion radius controls the pessimism discount:")
for c_eta in (0.0, 1.0, 2.0, 4.0):
    eta = learner.EtaConfig(c_eta=c_eta)
    engine = learner.LearnerEngine(ds, basis, eta)
    pv = learner.pessimistic_value(engine, pol)
    print(f"  c_eta = {c_eta:>3}: value {pv.value:+.4f} (plug-in {pv.plug_in:+.4f})")
