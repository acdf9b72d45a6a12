"""Seeded input generator for the benchmark.

Uses only the standard library and imports nothing from xmap, so the
generator's own bookkeeping (link lists, degree counts) can serve as the
oracle's ground truth. The same seed always gives byte-identical files.

Maps follow the shape of the test suite's random crossmaps: code-like labels,
30% split sources with fan-out 2-4, about half as many targets as
sources (so aggregates occur), and integer-ratio weights share/total with
shares in 1..9, so every weight is at least 1/28 and each source's weights
sum to 1 at float precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPLIT_SHARE = 0.3


@dataclass
class GeneratedMap:
    """Links in file order, plus the counts the generator knows."""

    links: list[tuple[str, str, float]]
    sources: list[str]
    targets: list[str]  # targets that receive at least one link, first-appearance order
    in_degree: dict[str, int]
    out_degree: dict[str, int]

    @property
    def n_splits(self) -> int:
        return sum(1 for d in self.out_degree.values() if d > 1)

    @property
    def n_aggregates(self) -> int:
        return sum(1 for d in self.in_degree.values() if d > 1)

    def text(self) -> str:
        rows = ["from,to,weight"]
        rows.extend(f"{s},{t},{w!r}" for s, t, w in self.links)
        return "\n".join(rows) + "\n"

    def defective_text(self) -> tuple[str, int, str]:
        """The edge list with the last source's last weight halved.

        Returns (text, line number of that row, source label). The row is the
        file's last, so a reader must parse the whole file before it can
        report the weight-sum violation.
        """
        source, target, weight = self.links[-1]
        rows = self.text().split("\n")[:-1]
        rows[-1] = f"{source},{target},{weight / 2!r}"
        return "\n".join(rows) + "\n", len(rows), source


def _codes(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Distinct code-like labels in random (not sorted) order."""
    width = len(str(10 * count))
    return [f"{prefix}{n:0{width}d}" for n in rng.sample(range(10 * count), count)]


def map_of(links: list[tuple[str, str, float]]) -> GeneratedMap:
    """Wrap a link list with its sources, targets and degrees."""
    in_degree: dict[str, int] = {}
    out_degree: dict[str, int] = {}
    for source, target, _ in links:
        out_degree[source] = out_degree.get(source, 0) + 1
        in_degree[target] = in_degree.get(target, 0) + 1
    return GeneratedMap(links, list(out_degree), list(in_degree), in_degree, out_degree)


def random_map(rng: random.Random, sources: list[str], target_pool: list[str]) -> GeneratedMap:
    """Split SPLIT_SHARE of the sources, with fan-outs 2, 3 and 4 in equal numbers,
    so the link count depends on the number of sources alone, never on the seed."""
    n_splits = round(SPLIT_SHARE * len(sources))
    fans = [2 + index % 3 for index in range(n_splits)] + [1] * (len(sources) - n_splits)
    rng.shuffle(fans)
    links: list[tuple[str, str, float]] = []
    for source, fan in zip(sources, fans):
        if fan > 1:
            heads = rng.sample(target_pool, fan)
            shares = [rng.randint(1, 9) for _ in heads]
            total = sum(shares)
            links.extend((source, head, share / total) for head, share in zip(heads, shares))
        else:
            links.append((source, rng.choice(target_pool), 1.0))
    return map_of(links)


def series_text(rng: random.Random, keys: list[str]) -> tuple[str, dict[str, float]]:
    values = {key: rng.uniform(-1e6, 1e6) for key in keys}
    rows = ["key,value"]
    rows.extend(f"{key},{value!r}" for key, value in values.items())
    return "\n".join(rows) + "\n", values


def iso_table(rng: random.Random, count: int) -> tuple[str, list[tuple[str, str]]]:
    """A wide ISO-style table: name, two- and three-letter codes, a numeric code
    with leading zeros, and a region. Returns (text, [(numeric, alpha3)])."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    alpha3 = rng.sample([a + b + c for a in letters for b in letters for c in letters], count)
    numeric = [f"{n:03d}" for n in rng.sample(range(1, 1000), count)]
    rows = ["country,ISO2,ISO3,ISONumeric,region"]
    for index, (code3, code_n) in enumerate(zip(alpha3, numeric)):
        rows.append(f"Country {index:03d},{code3[:2]},{code3},{code_n},R{rng.randint(1, 9)}")
    return "\n".join(rows) + "\n", list(zip(numeric, alpha3))


@dataclass
class Inputs:
    """Everything one workload hands to xmap, as file texts plus ground truth."""

    main: GeneratedMap
    second: GeneratedMap  # sources cover main's targets: composable with main
    values: dict[str, float]
    series: str
    defect: str
    defect_line: int
    defect_source: str
    table: str
    table_pairs: list[tuple[str, str]]
    chain: tuple[GeneratedMap, GeneratedMap]


def generate(seed: int, n_sources: int, chain_sources: int, table_rows: int) -> Inputs:
    """All inputs of one workload. Each onward map starts from the whole target
    pool of the map before it, so its size does not depend on which targets the
    seed happened to hit; composition and chaining need only the hit ones."""
    rng = random.Random(seed)
    middles = _codes(rng, "T", max(2, n_sources // 2))
    main = random_map(rng, _codes(rng, "S", n_sources), middles)
    second = random_map(rng, middles, _codes(rng, "U", max(2, len(middles) // 2)))
    series, values = series_text(rng, main.sources)
    defect, defect_line, defect_source = main.defective_text()
    table, table_pairs = iso_table(rng, table_rows)
    chain_middles = _codes(rng, "M", max(2, chain_sources // 2))
    first_step = random_map(rng, _codes(rng, "A", chain_sources), chain_middles)
    second_step = random_map(
        rng, chain_middles, _codes(rng, "Z", max(2, len(chain_middles) // 2))
    )
    return Inputs(
        main, second, values, series, defect, defect_line, defect_source,
        table, table_pairs, (first_step, second_step),
    )
