# Make a coin-flip gadget roll a fair die, then prove it did.
# The model pairs a fixed fair-die chain with a controllable one whose
# pair-merging choices are up to the synthesizer; the spec demands the two
# agree on every face.

from hypersynth import generate, impose, synthesize
from hypersynth.exact import reach_probs_exact

m, spec = generate("knuth-yao-pc")
out = synthesize(m, spec)

print("verdict:", out.verdict)
print("family size:", out.stats["family_size"])
print("iterations:", out.stats["iterations"],
      "wall:", round(out.stats["wall_time_s"], 3), "s")

ctrl = out.witness[0]
picked = {s: m.action_name(s, ctrl[s])
          for s in range(m.num_states)
          if m.num_actions(s) > 1}
print("witness choices:", picked)

mc = impose(m, ctrl)
print("face probabilities from the controllable root, in exact arithmetic:")
for k in range(1, 7):
    v = reach_probs_exact(mc, m.target(f"die{k}"))[7]
    print(f"  die{k}: {v}")
