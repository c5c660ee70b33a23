"""Stock-trading records analysis: the "other fields" demonstration.

The paper claims the framework "is not specific to any particular science
application, although it does require record-based data" and names "stock
trading records in business" as an example domain (§1, §6).  This module
backs that claim end to end: a generator that encodes trading days as
records in the *same* event container (one record per day; one "particle"
per trade with price and volume in the kinematic slots), and an analysis
producing the VWAP-by-day profile and the daily traded volume through the
identical engine/merge pipeline.  The per-day reductions run as
``np.add.reduceat`` segment sums over ``offsets`` — no Python loop over
days.

Field mapping (documented, deliberate):

=============  ===========================
Event field    Trading meaning
=============  ===========================
``event_id``   day number
``process``    instrument id
``pdg``        trade side (+1 buy, -1 sell)
``e``          trade price
``px``         trade volume (shares)
=============  ===========================
"""

from __future__ import annotations

import numpy as np

from repro.dataset.events import EventBatch


def generate_trading_days(
    n_days: int,
    trades_per_day: int = 50,
    start_price: float = 100.0,
    daily_volatility: float = 0.02,
    seed: int = 0,
) -> EventBatch:
    """Generate a synthetic geometric-random-walk trading dataset.

    One record per day; each day holds *trades_per_day* trades whose prices
    jitter intraday around the day's level.
    """
    if n_days < 0:
        raise ValueError("n_days must be >= 0")
    if trades_per_day < 1:
        raise ValueError("trades_per_day must be >= 1")
    rng = np.random.default_rng(seed)
    daily_returns = rng.normal(0.0, daily_volatility, n_days)
    levels = start_price * np.exp(np.cumsum(daily_returns))
    n_trades = n_days * trades_per_day
    prices = np.repeat(levels, trades_per_day) * np.exp(
        rng.normal(0.0, daily_volatility / 4, n_trades)
    )
    volumes = rng.lognormal(mean=4.0, sigma=1.0, size=n_trades)
    sides = rng.choice([-1, 1], size=n_trades)
    offsets = np.arange(n_days + 1, dtype=np.int64) * trades_per_day
    zeros = np.zeros(n_trades)
    return EventBatch(
        event_ids=np.arange(n_days),
        process=np.zeros(n_days, dtype=np.int16),
        weights=np.ones(n_days),
        offsets=offsets,
        pdg=sides.astype(np.int32),
        e=prices,
        px=volumes,
        py=zeros,
        pz=zeros,
    )


#: Stageable source form (sandbox-compatible).
SOURCE = '''
class StagedTradingAnalysis(Analysis):
    """Per-day VWAP and volume from trading records."""

    name = "trading-records"

    def start(self, tree):
        tree.put("/trading/vwap_by_day", Profile1D(
            "vwap_by_day", "VWAP by day", bins=100, lower=0, upper=5000))
        tree.put("/trading/daily_volume", Histogram1D(
            "daily_volume", "Daily traded volume", bins=50, lower=0, upper=20000))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        starts = batch.offsets[:-1].astype(np.int64)
        counts = batch.offsets[1:].astype(np.int64) - starts

        def segment_sums(values):
            values = values.astype(float, copy=False)
            if values.size == 0 or counts.size == 0:
                return np.zeros(counts.shape, dtype=float)
            if starts[-1] >= values.size:
                values = np.concatenate([values, np.zeros(1)])
            sums = np.add.reduceat(values, starts)
            return np.where(counts > 0, sums, 0.0)

        volumes = segment_sums(batch.px)
        notionals = segment_sums(batch.e * batch.px)
        traded = volumes > 0
        vwaps = np.full(len(batch), np.nan)
        np.divide(notionals, volumes, out=vwaps, where=traded)
        tree.get("/trading/vwap_by_day").fill_array(
            batch.event_ids[traded].astype(float), vwaps[traded])
        tree.get("/trading/daily_volume").fill_array(volumes)
'''
