"""Compare ``skinwave.shortest.shortest_repr`` with ``repr()`` on a fixed, seeded sample of doubles.

    PYTHONPATH=src python scripts/check_shortest_repr.py

The sample mixes random bit patterns with the values a formatter gets
wrong first: signed zeros, nan, infinities, subnormals, the ends of the
normal range, every power of two and of ten with both neighbours, exact
ties (decimals of 17 or 18 digits ending in 5), integers, short decimals
and grid coordinates, and log-uniform magnitudes of either sign.  It
prints the share of values the formatter decided without ``repr`` and
every mismatch, and exits 1 if there is one.
"""

from __future__ import annotations

import sys

import numpy as np

from skinwave.shortest import _decide, shortest_repr

_BATCH = 100_000


def adversarial() -> np.ndarray:
    """The fixed hard cases: specials, subnormals, range ends, powers of 2 and 10 with neighbours, ties."""
    specials = [0.0, np.nan, np.inf, 5e-324, 2.5e-323, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17, 9007199254740993.0]
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ties = [(2 * k + 1) / 2.0 ** j for j in (16, 17) for k in range(2 ** (j - 1) + 1, 2 ** (j - 1) + 60)]
    ties += [(10 * 2 ** 16 - 2 * k - 1) / 2.0 ** 16 for k in range(60)]   # 9.99...5: ties at 16 digits
    values = np.concatenate([specials, powers, ties])
    return np.concatenate([values, -values])


def sample(count: int, seed: int = 0) -> np.ndarray:
    """``adversarial()`` and then ``count`` more doubles drawn from ``seed``, in eight equal classes."""
    rng = np.random.default_rng(seed)
    n = max(count // 8, 1)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    # exact ties across magnitudes: odd / 2**j in [10**d, 10**(d + 1)) has j + d + 1 digits, the last a 5
    d = rng.integers(-6, 10, n)
    j = rng.integers(17, 19, n) - 1 - d
    low = 10.0 ** d * 2.0 ** j
    odd = (low + rng.random(n) * 9 * low).astype(np.int64) | 1
    classes = [
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
        sign * 10.0 ** rng.uniform(-310, 308.25, n),
        rng.random(n),
        sign * rng.integers(0, 2 ** 63, n).astype(float),   # beyond 2**53 the interval ends are integers
        rng.integers(0, 10 ** 8, n) / 10.0 ** rng.integers(0, 17, n),   # short decimals
        rng.integers(0, 100_000, n) * np.array([0.005, 0.01, 0.1, 1 / 3])[rng.integers(0, 4, n)],
        sign * odd * 2.0 ** -j,
        rng.integers(1, 2 ** 20, n) * 2.0 ** rng.integers(-60, 60, n),
    ]
    return np.concatenate([adversarial()] + classes)


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, formatter's text, repr's text) wherever they differ; nan must be empty."""
    found = []
    for a in range(0, len(values), _BATCH):
        batch = values[a:a + _BATCH]
        rows = shortest_repr(batch)
        got = rows.view(f"S{rows.shape[1]}").ravel().tolist() if rows.shape[1] else [b""] * len(batch)
        for v, text in zip(batch.tolist(), got):
            want = "" if v != v else repr(v)
            if text.decode() != want:
                found.append((v, text.decode(), want))
    return found


def main() -> int:
    values = sample(10_000_000, seed=0)
    decided = sum(int(np.count_nonzero(_decide(np.abs(values[a:a + _BATCH]))[3]))
                  for a in range(0, len(values), _BATCH))
    bad = mismatches(values)
    print(f"{len(values)} values (seed 0): {decided / len(values):.4%} decided without repr, "
          f"{len(bad)} mismatches")
    for v, got, want in bad[:20]:
        print(f"  {v!r}: formatter {got!r}, repr {want!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
