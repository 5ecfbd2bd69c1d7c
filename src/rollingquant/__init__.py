"""Deterministic monthly-rebalance backtester for three factor-ranking
strategies: linear-regression valuation skew, a dense excess-return
projector, and a from-scratch LSTM sequence projector."""

__version__ = "0.1.0"
