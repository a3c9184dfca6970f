"""The approximate ordering's per-step candidate pipeline as it was
before `trimmed_candidates`: draw every reported bucket's whole window
with `exp_decayed_candidates`, then trim, then cap.  The law test
compares `trimmed_candidates` with it."""

from __future__ import annotations

from fillorder.ordering import (CANDIDATE_C2, SURVIVOR_CAP, TRIM_EXPONENT,
                                exp_decayed_candidates)


def reference_trimmed_candidates(report, eps_hat: float, rng):
    """(trim value, vertex, delta) survivors and the candidate count."""
    base = 1.0 + eps_hat
    candidates = []
    for b, members in report:
        candidates.extend(exp_decayed_candidates(members, eps_hat, b, rng, c2=CANDIDATE_C2))
    trim_value = {id(c): (1.0 - c.delta) * base**c.bucket for c in candidates}
    threshold = base**TRIM_EXPONENT * min(trim_value.values())
    survivors = [c for c in candidates
                 if c.bucket == 0 or trim_value[id(c)] <= threshold]
    if len(survivors) > SURVIVOR_CAP:
        survivors.sort(key=lambda c: (trim_value[id(c)], c.vertex))
        survivors = survivors[:SURVIVOR_CAP]
    return [(trim_value[id(c)], c.vertex, c.delta) for c in survivors], len(candidates)
