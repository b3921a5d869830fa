"""latecut: test-time residual-block pruning, cached feature-map
distillation, and a streaming serving loop that interleaves all three."""
