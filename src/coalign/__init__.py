"""Desk-scale lab for domain adaptation under joint feature and label shift.

Builds long-tailed source/target splits with mirrored class rankings,
trains a prototype-based cosine classifier with adversarial entropy and
class-balanced self-training, and reports per-class mean accuracy against
source-only and marginal-alignment baselines.
"""
