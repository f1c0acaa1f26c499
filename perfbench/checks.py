"""Output checks computed apart from egms, and a self-test that they bite.

Every check reads egms's output with the parser below, recomputes what it
can from the benchmark's own copy of the inputs (numpy only, no egms
function), and raises :class:`CheckFailed` naming the check that failed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import Corpus, read_embeddings

ENTROPY_TOL = 1e-9
EIG_CLAMP = 1e-12
LLOYD_TOL = 1e-6  # egms stops Lloyd once no centroid moves by this much


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class Cluster:
    cid: int
    budget: int
    entropy: float | None
    ids: list[str]


@dataclass
class Record:
    id: str
    cluster: int
    step: int
    entropy: float | None


@dataclass
class Manifest:
    header: dict[str, str]
    filtered_out: list[str]
    clusters: list[Cluster]
    records: list[Record]


def _float(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


def parse_manifest(text: str) -> Manifest:
    """Parse the selection-manifest text format (see the egms README)."""
    try:
        lines = text.splitlines()
        if lines[0] != "egms-manifest v1":
            raise ValueError("bad first line")
        pos, header = 1, {}
        while not lines[pos].startswith("filtered_out "):
            key, value = lines[pos].split(" ", 1)
            header[key] = value
            pos += 1
        toks = lines[pos].split(" ")
        filtered = toks[2 : 2 + int(toks[1])]
        pos += 1
        n_clusters = int(lines[pos].split(" ")[1])
        clusters = []
        for line in lines[pos + 1 : pos + 1 + n_clusters]:
            t = line.split(" ")
            if t[0] != "cluster" or t[2] != "budget" or t[4] != "entropy" or t[6] != "ids":
                raise ValueError(f"bad cluster line {line[:60]!r}")
            clusters.append(Cluster(int(t[1]), int(t[3]), _float(t[5]), t[7:]))
        pos += 1 + n_clusters
        n_records = int(lines[pos].split(" ")[1])
        records = []
        for line in lines[pos + 1 : pos + 1 + n_records]:
            sid, cl, step, ent = line.split(" ")
            records.append(Record(sid, int(cl), int(step), _float(ent)))
        if len(records) != n_records or len(lines) != pos + 1 + n_records:
            raise ValueError("record count does not match the records section")
    except (IndexError, ValueError) as exc:
        raise CheckFailed("parse", str(exc)) from exc
    return Manifest(header, filtered, clusters, records)


def load_manifest(path: Path) -> Manifest:
    return parse_manifest(Path(path).read_text(encoding="utf-8"))


def set_entropy(points: np.ndarray, sigma: float) -> float:
    """Von Neumann entropy of the trace-normalised Gaussian kernel matrix."""
    diff = points[:, None, :] - points[None, :, :]
    kernel = np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * sigma * sigma))
    lam = np.linalg.eigvalsh(kernel / np.trace(kernel))
    lam = lam[lam >= EIG_CLAMP]
    return float(-(lam * np.log(lam)).sum())


def expected_filtered(ppls: np.ndarray, tail_low: float, tail_high: float) -> np.ndarray:
    """Rows removed as the two perplexity tails, by rank, lower index first."""
    n = ppls.size
    idx = np.arange(n)
    low = np.lexsort((idx, ppls))[: math.floor(n * tail_low)]
    rest = np.setdiff1d(idx, low)
    high = rest[np.lexsort((rest, -ppls[rest]))][: math.floor(n * tail_high)]
    return np.concatenate([low, high])


def check_selection(man: Manifest, corpus: Corpus, budget: int, clusters: int, sigma: float,
                    tails: tuple[float, float] | None) -> float:
    """Check one selection manifest; returns its sum of exp(final cluster entropy).

    ``tails`` is None for strategies that select without perplexity
    filtering.
    """
    selected = [r.id for r in man.records]
    if len(selected) != budget:
        raise CheckFailed("record_count", f"{len(selected)} records, budget {budget}")
    if len(set(selected)) != len(selected):
        raise CheckFailed("unique_ids", "a selected id repeats")
    if not all(s in corpus.row_index for s in selected):
        raise CheckFailed("known_ids", "a selected id is not in the corpus")

    if len(man.clusters) != clusters:
        raise CheckFailed("cluster_count", f"{len(man.clusters)} clusters, expected {clusters}")
    by_cluster: dict[int, list[Record]] = {}
    for rec in man.records:
        by_cluster.setdefault(rec.cluster, []).append(rec)
    for cl in man.clusters:
        recs = by_cluster.pop(cl.cid, [])
        if [r.id for r in recs] != cl.ids or [r.step for r in recs] != list(range(len(recs))):
            raise CheckFailed("cluster_records", f"records of cluster {cl.cid} disagree with its id list")
        if len(cl.ids) != cl.budget:
            raise CheckFailed("cluster_budget", f"cluster {cl.cid} holds {len(cl.ids)} ids, budget {cl.budget}")
    if by_cluster:
        raise CheckFailed("cluster_records", f"records name unknown clusters {sorted(by_cluster)[:5]}")
    budgets = [cl.budget for cl in man.clusters]
    if sum(budgets) != budget:
        raise CheckFailed("budget_sum", f"cluster budgets sum to {sum(budgets)}, requested {budget}")
    if budget >= clusters and min(budgets) < 1:
        raise CheckFailed("budget_sum", "a cluster has budget 0 although budget >= cluster count")

    if tails is None:
        expected = []
    else:
        expected = [corpus.ids[r] for r in expected_filtered(corpus.ppls, *tails)]
    if sorted(man.filtered_out) != sorted(expected):
        raise CheckFailed("filtered_out", f"{len(man.filtered_out)} ids filtered, expected {len(expected)}")
    if set(man.filtered_out) & set(selected):
        raise CheckFailed("filtered_out", "a filtered-out id is selected")

    effective = 0.0
    for cl in man.clusters:
        if not cl.ids:
            if cl.entropy is not None:
                raise CheckFailed("cluster_entropy", f"empty cluster {cl.cid} reports an entropy")
            continue
        h = set_entropy(corpus.data[corpus.rows_of(cl.ids)], sigma)
        if cl.entropy is None or abs(h - cl.entropy) > ENTROPY_TOL:
            raise CheckFailed("cluster_entropy", f"cluster {cl.cid}: manifest {cl.entropy!r}, recomputed {h!r}")
        effective += math.exp(cl.entropy)
    for rec in man.records:
        if rec.entropy is None or not 0.0 <= rec.entropy <= math.log(rec.step + 1) + EIG_CLAMP:
            raise CheckFailed("record_entropy", f"{rec.id} step {rec.step} entropy {rec.entropy!r}")
    return effective


def check_centroids(path: Path, man: Manifest, corpus: Corpus, clusters: int) -> None:
    """L finite centroids, and each selected row nearest its own centroid.

    The slack is twice the Lloyd stopping shift (labels were assigned
    against centroids up to that far from the final ones) plus the float32
    rounding of the dumped centroids.
    """
    try:
        cents = read_embeddings(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed("centroids", str(exc)) from exc
    if cents.shape != (clusters, corpus.data.shape[1]) or not np.isfinite(cents).all():
        raise CheckFailed("centroids", f"dump has shape {cents.shape}, expected ({clusters}, {corpus.data.shape[1]})")
    slack = 2 * LLOYD_TOL + 2.0**-23 * float(np.linalg.norm(cents, axis=1).max()) + 1e-9
    rows = corpus.rows_of([r.id for r in man.records])
    own = np.array([r.cluster for r in man.records], dtype=np.int64)
    for start in range(0, rows.size, 256):
        diff = corpus.data[rows[start : start + 256], None, :] - cents[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        mine = dist[np.arange(dist.shape[0]), own[start : start + 256]]
        worst = int(np.argmax(mine - dist.min(axis=1)))
        if mine[worst] > dist[worst].min() + slack:
            raise CheckFailed("centroid_nearest", f"selected row {rows[start + worst]} is not nearest its centroid")


def check_shift(man: Manifest, reference: Manifest) -> None:
    """A constant shift of the corpus must not change the selection."""
    ids, ref = [r.id for r in man.records], [r.id for r in reference.records]
    if ids != ref:
        same = sum(a == b for a, b in zip(ids, ref))
        raise CheckFailed("shift_invariance", f"{same} of {len(ref)} selected ids unchanged in order")


def self_test(man: Manifest, corpus: Corpus, budget: int, clusters: int, sigma: float,
              tails: tuple[float, float]) -> list[str]:
    """Corrupt a manifest that passed its checks in five ways.

    Returns a line for each corruption that the check aimed at it did not
    reject; empty when every check bites.
    """
    ai, bi = [i for i, cl in enumerate(man.clusters) if cl.ids][:2]
    a, b = man.clusters[ai], man.clusters[bi]
    taken = set(man.filtered_out) | {r.id for r in man.records}
    spare = next(s for s in corpus.ids if s not in taken)

    def replace(m: Manifest, old: str, new: str) -> None:
        for cl in m.clusters:
            cl.ids = [new if s == old else s for s in cl.ids]
        for rec in m.records:
            if rec.id == old:
                rec.id = new

    # corruption -> (manifest, the check that must reject it)
    corrupted = {}
    m = copy.deepcopy(man)
    replace(m, a.ids[0], "\0")
    replace(m, b.ids[0], a.ids[0])
    replace(m, "\0", b.ids[0])
    corrupted["swapped_id"] = (m, "cluster_entropy")
    m = copy.deepcopy(man)
    m.clusters[ai].entropy += 1e-6
    corrupted["entropy_off_1e-6"] = (m, "cluster_entropy")
    m = copy.deepcopy(man)
    replace(m, a.ids[-1], man.filtered_out[0])
    corrupted["filtered_id_selected"] = (m, "filtered_out")
    # move a's last id to the end of b: the total and the id set stay, a holds
    # one id under its budget and b one over
    m = copy.deepcopy(man)
    moved = next(r for r in m.records if r.id == a.ids[-1])
    m.records.remove(moved)
    last_b = [r for r in m.records if r.cluster == b.cid][-1]
    m.records.insert(m.records.index(last_b) + 1, Record(moved.id, b.cid, last_b.step + 1, last_b.entropy))
    m.clusters[ai].ids.pop()
    m.clusters[bi].ids.append(moved.id)
    corrupted["cluster_over_budget"] = (m, "cluster_budget")

    def rejected_by(check, *args) -> str | None:
        try:
            check(*args)
        except CheckFailed as exc:
            return exc.check
        return None

    problems = []
    for name, (bad, expected) in corrupted.items():
        got = rejected_by(check_selection, bad, corpus, budget, clusters, sigma, tails)
        if got != expected:
            problems.append(f"{name}: {'accepted' if got is None else 'rejected by ' + got}, expected {expected}")
    m = copy.deepcopy(man)
    replace(m, a.ids[-1], spare)
    got = rejected_by(check_shift, m, man)
    if got != "shift_invariance":
        problems.append(f"shift_one_id_differs: {'accepted' if got is None else 'rejected by ' + got}")
    return problems
