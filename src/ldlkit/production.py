"""Form synthesis: positional cue support, overlap-constrained path
enumeration, and reranking of candidates by mapping them back into
semantic space.

A word is a path through overlapping n-grams from a boundary-initial
gram to a boundary-final one.  A per-position linear model scores how
well each inventory cue is supported at each position; paths are
assembled depth-first, in one loop over an explicit stack, from the
top-k supported cues per position, with an optional tolerance budget for
weakly supported cues, and the surviving candidates are ranked by how
well their own projected meaning correlates with the target meaning.
That correlation is computed in cue space: per item, from the centred
rows of F.W of only the cues its candidates use and their Gram matrix,
never from a dense candidate-by-cue matrix or the candidates'
projections.

Positional support models are estimated in closed form only; there is
no token-by-token training path for them.  A model stores only the
(position, cue) columns attested in training: a cue that never fills a
position has support exactly 0 there, so the model keeps one
(input_dim, n_attested) weight matrix and the flat position-cue index of
each column.  Supports stay in that compact form until the path search:
they are computed for a batch of inputs with one matrix product, and the
search scatters one item's attested values into a (max_len, n_cues)
block of zeros to pick every position's top k at once.  The few supports
that can decide that choice are summed again in input order
(search_supports), so an item's candidates do not depend on the batch it
is computed in.  A candidate is a path of cue ids from the search to the
ranking.  Its surface string is spelled only if ranking can keep it, and
a CandidatePath with its grams is built only for the kept top n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .cues import CueConfig, CueInventory, extract_grams
from .mappings import Mapping

if TYPE_CHECKING:  # concurrent.futures is imported only by the runs that start a thread
    from concurrent.futures import Executor


_EPS = np.finfo(np.float64).eps


class ProductionError(ValueError):
    pass


def merge_grams(grams: Sequence[str], cfg: Optional[CueConfig] = None) -> str:
    """Merge overlap-compatible grams into a surface string.

    Adjacent grams must overlap in all but one unit; the merge keeps the
    first gram and appends each following gram's final unit, then strips
    the boundary markers.
    """
    if not grams:
        raise ProductionError("no grams to merge")
    cfg = cfg or CueConfig(unit="letter", n=max(len(g) for g in grams))
    tokens = cfg.tokens(grams[0])
    for g in grams[1:]:
        gt = cfg.tokens(g)
        if len(gt) < 2:
            raise ProductionError("cannot merge length-1 grams")
        if tokens[-(len(gt) - 1) :] != gt[:-1]:
            raise ProductionError(f"grams do not overlap: {tokens} + {gt}")
        tokens.append(gt[-1])
    return _surface(tokens, cfg)


def _surface(units: Sequence[str], cfg: CueConfig) -> str:
    """The form spelled by a boundary-padded unit sequence."""
    return cfg.joiner.join(t for t in units if t != cfg.boundary)


@dataclass
class PositionalSupportModel:
    """One linear mapping per word position onto per-cue support scores.

    Only attested (position, cue) pairs are stored.  Column c of weights
    (input_dim, n_attested) maps the configured input space (predicted
    cue vector or semantic vector) to the support of cue j at position p,
    where columns[c] == p * n_cues + j; every other cue has support 0.
    Position p's columns are ends[p]:ends[p + 1].  The inventory's token
    lists and (n-1)-unit overlap keys are computed once here for the path
    search.
    """

    weights: np.ndarray  # (input_dim, n_attested)
    columns: np.ndarray  # (n_attested,) ascending flat indices p * n_cues + j
    max_len: int
    inventory: CueInventory
    cfg: CueConfig
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    tokens: list[list[str]] = field(init=False, repr=False, compare=False)
    prefixes: list[tuple] = field(init=False, repr=False, compare=False)
    suffixes: list[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights.shape[1] != self.columns.size:
            raise ProductionError("weights need one column per attested (position, cue) pair")
        self.ends = _position_ends(self.columns, self.max_len, len(self.inventory))
        self.tokens = [self.cfg.tokens(g) for g in self.inventory.cues]
        k = self.cfg.n - 1
        self.prefixes = [tuple(t[:k]) for t in self.tokens]
        self.suffixes = [tuple(t[-k:]) if k else () for t in self.tokens]

    def supports(self, X: np.ndarray) -> np.ndarray:
        """(n, n_attested) supports of the attested columns for a batch of
        inputs (n, input_dim)."""
        return np.asarray(X, dtype=np.float64) @ self.weights

    def search_supports(self, X: np.ndarray, params: ProductionParams) -> np.ndarray:
        """supports(X), with every value that can change the path search's
        choice of cues (_candidates_by_position) summed in input order.

        A matrix product may add its terms in any order.  With near-singular
        inputs, weights reach ~1e12, so that order can move a support by
        ~1e-2: enough to cross theta or to reorder the top k, which would
        make the result depend on the batch and the BLAS kernel.  Input
        order is the order of numpy's einsum over one input and the dense
        (max_len, input_dim, n_cues) tensor.  Each product value is within
        2 * input_dim * eps * (|x| @ |w|) of the input-order sum.  Every
        value whose bound reaches the k-th largest lower bound at its
        position (and theta, unless weak cues are admitted) is summed again
        in input order; no other value can be chosen under either rounding.
        An unattested cue's support is exactly 0 under any order, so the
        k-th largest lower bound is taken over the position's attested
        lower bounds and as many zeros as can reach the k-th place.
        """
        X = np.asarray(X, dtype=np.float64)
        vals = self.supports(X)
        n, n_cues = vals.shape[0], len(self.inventory)
        k = min(params.k, n_cues)
        scale = 2 * X.shape[1] * _EPS
        abs_X = np.abs(X)
        redo = np.zeros(vals.shape, dtype=bool)
        for p in range(self.max_len):
            a, b = self.ends[p], self.ends[p + 1]
            if a == b:
                continue
            v = vals[:, a:b]
            bound = scale * (abs_X @ np.abs(self.weights[:, a:b]))
            # Negated lower bounds, then implicit zeros for the unattested cues.
            neg_lower = np.zeros((n, b - a + min(k, n_cues - (b - a))))
            np.subtract(bound, v, out=neg_lower[:, : b - a])
            neg_lower.partition(k - 1, axis=1)
            cutoff = -neg_lower[:, k - 1 : k]
            if not params.tolerance:
                cutoff = np.maximum(cutoff, params.theta)
            redo[:, a:b] = (v + bound >= cutoff) & (bound > 0)
        # Columns with huge weights must be summed again for most rows: do
        # those for all rows as one product, and the other values one by one.
        wide = redo.sum(axis=0) * 2 >= n
        rows, cols = np.nonzero(redo & ~wide)
        wide = np.flatnonzero(wide)
        XT = np.ascontiguousarray(X.T)
        vals[:, wide] = _input_order_product(XT, self.weights[:, wide])
        acc = np.zeros(rows.size)
        for x_i, w_i in zip(XT, self.weights):
            acc += x_i[rows] * w_i[cols]
        vals[rows, cols] = acc
        return vals


def _position_ends(columns: np.ndarray, max_len: int, n_cues: int) -> np.ndarray:
    """Offsets into ascending flat columns: position p's are ends[p]:ends[p + 1]."""
    return np.searchsorted(columns, np.arange(max_len + 1) * n_cues)


def _input_order_product(XT: np.ndarray, W: np.ndarray) -> np.ndarray:
    """XT.T @ W with every sum taken term by term in input order."""
    out = np.empty((XT.shape[1], W.shape[1]))
    step = 256  # columns per block, so that a block of sums stays in cache
    for a in range(0, W.shape[1], step):
        W_block = np.ascontiguousarray(W[:, a : a + step])
        acc = np.zeros((XT.shape[1], W_block.shape[1]))
        term = np.empty_like(acc)
        for x_i, w_i in zip(XT, W_block):
            np.multiply(x_i[:, None], w_i, out=term)
            acc += term
        out[:, a : a + step] = acc
    return out


@dataclass(frozen=True)
class PositionalTargets:
    """Which gram fills which slot, as attested (item, flat column) pairs.

    Item items[t] has cue j at position p, where columns[t] == p * n_cues + j;
    every other slot is empty.  No dense (n_items, max_len, n_cues) tensor
    is built: training fills one position at a time.
    """

    items: np.ndarray
    columns: np.ndarray
    n_items: int
    max_len: int
    n_cues: int

    def position(self, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense binary (n_items, n_cues) targets of position p, written
        into out when it is given."""
        at = self.columns // self.n_cues == p
        if out is None:
            out = np.empty((self.n_items, self.n_cues))
        out.fill(0.0)
        out[self.items[at], self.columns[at] - p * self.n_cues] = 1.0
        return out


def positional_targets(
    forms: Sequence[str], inv: CueInventory, cfg: CueConfig, max_len: int
) -> PositionalTargets:
    """Which gram fills which slot of each form.

    Grams outside the inventory leave their slot empty (novel grams have
    no support to learn).
    """
    items, columns = [], []
    for i, s in enumerate(forms):
        grams = extract_grams(s, cfg)
        if len(grams) > max_len:
            raise ProductionError(
                f"form {s!r} has {len(grams)} grams, exceeding max_len={max_len}"
            )
        for p, g in enumerate(grams):
            j = inv.index.get(g)
            if j is not None:
                items.append(i)
                columns.append(p * len(inv) + j)
    return PositionalTargets(np.array(items, dtype=np.int64), np.array(columns, dtype=np.int64),
                             len(forms), max_len, len(inv))


def train_positional(
    inputs: np.ndarray,
    targets: PositionalTargets,
    inv: CueInventory,
    cfg: CueConfig,
    worker: Optional[Executor] = None,
) -> PositionalSupportModel:
    """Least-squares positional support model.

    One end-state solve per position over a shared input matrix; the
    input factorization is computed once and reused, which matches the
    per-position minimum-norm solutions.  Only the (position, cue)
    columns that some training form fills are solved for: the
    minimum-norm weights of an all-zero target column are zero, so a
    position no form fills is not solved at all.

    Given a worker (an executor with one thread, which may still be busy
    with work submitted before), every other filled position is solved
    there while this thread computes the rest.  Each position's product
    is the same BLAS call on either thread, so the weights have the bits
    of a serial solve.  Every array the worker fills is allocated here:
    glibc gives it a malloc arena of its own, whose memory this thread
    does not reuse.
    """
    if targets.n_items == 0:
        raise ProductionError("empty training set")
    if inputs.shape[0] != targets.n_items:
        raise ProductionError("inputs and targets must have one row per item")
    max_len, n_cues = targets.max_len, targets.n_cues
    columns = np.unique(targets.columns)
    pinv = np.linalg.pinv(np.asarray(inputs, dtype=np.float64))
    ends = _position_ends(columns, max_len, n_cues)
    weights = np.empty((pinv.shape[0], columns.size))
    filled = [p for p in range(max_len) if ends[p] < ends[p + 1]]

    def solve(positions: Sequence[int], dense: np.ndarray, product: np.ndarray) -> None:
        # Each position's product runs over all its cues, so every stored
        # column has the bits of the dense per-position solve
        # pinv @ targets.position(p).
        for p in positions:
            a, b = ends[p], ends[p + 1]
            np.matmul(pinv, targets.position(p, out=dense), out=product)
            weights[:, a:b] = product[:, columns[a:b] - p * n_cues]

    def buffers() -> tuple[np.ndarray, np.ndarray]:
        return np.empty((targets.n_items, n_cues)), np.empty((pinv.shape[0], n_cues))

    if worker is None:
        solve(filled, *buffers())
    else:
        odd = worker.submit(solve, filled[1::2], *buffers())
        solve(filled[::2], *buffers())
        odd.result()
    return PositionalSupportModel(weights=weights, columns=columns, max_len=max_len,
                                  inventory=inv, cfg=cfg)


@dataclass
class CandidatePath:
    """A complete overlap-valid gram path and its synthesis score."""

    grams: tuple[str, ...]
    surface: str
    tolerated_count: int = 0
    score: float = float("nan")


class CandidatePaths(list):
    """The paths of one search, (cue ids, tolerated count) in the order
    found; truncated is set when max_paths stopped the search."""

    truncated: bool = False


def _check_search_ranges(k: int, theta: float, max_tolerated: int, max_paths: Optional[int]):
    """The ranges of the path search's parameters, for ProductionParams and
    enumerate_paths alike."""
    if k < 1:
        raise ProductionError(f"k must be >= 1, got {k}")
    if theta < 0:
        raise ProductionError(f"theta must be >= 0, got {theta}")
    if max_tolerated < 0:
        raise ProductionError(f"max_tolerated must be >= 0, got {max_tolerated}")
    if max_paths is not None and max_paths < 1:
        raise ProductionError(f"max_paths must be >= 1, got {max_paths}")


def _candidates_by_position(
    m: PositionalSupportModel, support: np.ndarray, k: int, theta: float, tolerance: bool
) -> list[list[tuple[int, bool]]]:
    """Each position's top-k cues as (cue index, is_weak) pairs, from one
    item's compact support row scattered into a (max_len, n_cues) block of
    zeros.

    Cues at or above theta are free; below-theta cues appear only in
    tolerance mode and draw on the path's tolerated budget.  The chosen k
    are ordered by (-support, cue index), so expansion is deterministic.
    Which of the cues tied at the k-th place enter the top k is left to
    argpartition, not to the cue index; ROADMAP item 3 plans to break
    those ties by the lowest cue index.
    """
    n_cues = len(m.inventory)
    block = np.zeros((m.max_len, n_cues))
    block.flat[m.columns] = support
    k = min(k, n_cues)
    top = (np.argpartition(-block, k - 1, axis=1)[:, :k] if k < n_cues
           else np.broadcast_to(np.arange(n_cues), block.shape))
    vals = np.take_along_axis(block, top, axis=1)
    order = np.lexsort((top, -vals), axis=1)
    top = np.take_along_axis(top, order, axis=1).tolist()
    free = (np.take_along_axis(vals, order, axis=1) >= theta).tolist()
    return [[(j, not f) for j, f in zip(js, fs) if f or tolerance] for js, fs in zip(top, free)]


def enumerate_paths(
    m: PositionalSupportModel,
    support: np.ndarray,
    k: int = 10,
    theta: float = 0.008,
    tolerance: bool = False,
    max_tolerated: int = 2,
    max_paths: Optional[int] = None,
) -> CandidatePaths:
    """All overlap-valid boundary-to-boundary paths over supported cues.

    support is one item's (n_attested,) row from m.search_supports; each
    position's top-k cues are chosen from its attested values and 0 for
    every other cue (_candidates_by_position).
    Depth-first expansion over the per-position top-k candidate cues, in
    rank order; a path may use at most max_tolerated sub-threshold cues
    when tolerance is on.  Each complete path is returned as its cue ids
    and tolerated count, in the order found; an empty result is a
    legitimate outcome (nothing sufficiently supported).  max_paths
    optionally truncates the search as a runaway guard, and the result's
    truncated flag records that it did; the default explores everything.

    No surface string is built here.  Each gram after the first overlaps
    the previous one in all but its last unit, and a boundary can only
    open the first gram or close the last one (as in every gram that
    extract_grams makes).  So a path is fixed by its unit sequence, and
    two distinct paths spell distinct surfaces.
    """
    _check_search_ranges(k, theta, max_tolerated, max_paths)
    if np.shape(support) != m.columns.shape:
        raise ProductionError(
            f"support must be one item's ({m.columns.size},) row of attested columns, "
            f"got shape {np.shape(support)}"
        )
    per_pos = _candidates_by_position(m, support, k, theta, tolerance)
    # Index each position's candidates by their (n-1)-unit prefix, so that a
    # path only meets overlap-compatible continuations (all of them when
    # n == 1, where every prefix and suffix is ()).
    by_prefix: list[dict[tuple, list[tuple[int, bool]]]] = []
    for cands in per_pos:
        d: dict[tuple, list[tuple[int, bool]]] = {}
        for j, weak in cands:
            d.setdefault(m.prefixes[j], []).append((j, weak))
        by_prefix.append(d)

    out = CandidatePaths()
    budget = max_tolerated if tolerance else 0
    tok, boundary = m.tokens, m.cfg.boundary
    # Continuations are pushed in reverse rank order, so that popping visits
    # paths in depth-first preorder.
    stack = [((j,), int(weak)) for j, weak in reversed(per_pos[0])
             if tok[j][0] == boundary and weak <= budget]
    while stack:
        if max_paths is not None and len(out) >= max_paths:
            out.truncated = True
            break
        path, tolerated = stack.pop()
        last = path[-1]
        if tok[last][-1] == boundary:
            out.append((path, tolerated))
        elif len(path) < m.max_len:
            stack.extend((path + (j,), tolerated + weak)
                         for j, weak in reversed(by_prefix[len(path)].get(m.suffixes[last], ()))
                         if tolerated + weak <= budget)
    return out


# A candidate whose centred cue rows sum to a squared norm below CANCELLATION
# times the sum of their squared norms is scored from the sum itself
# (synthesize_by_analysis).
CANCELLATION = 1e-3


def synthesize_by_analysis(
    candidates: Sequence[tuple[Sequence[int], int]],
    F: Mapping,
    s_target: np.ndarray,
    m: PositionalSupportModel,
    top_n: Optional[int] = None,
) -> list[CandidatePath]:
    """Rank candidates by the fit of their own projected meanings.

    candidates are paths of cue ids with their tolerated counts, as
    enumerate_paths returns them.  A candidate's score is the Pearson
    correlation of its binary cue vector mapped through the comprehension
    matrix, c @ F.W, with the target meaning; a gram that occurs twice in
    a path counts once.  Ranking is by descending score with the surface
    string as deterministic tie-break; degenerate projections (NaN) rank
    last.  Only the first top_n (all when None) are returned.  Surfaces
    are spelled from m's cached tokens only for the candidates that can
    be among them, and only those become CandidatePaths, with their grams
    read from m.inventory.

    The correlation is computed in cue space, from only the cues that
    the item's candidates use.  Centring is linear, so the centred
    projection of a candidate is the sum of its cues' centred rows of
    F.W.  With Fc those rows for the sorted union U of the candidates'
    cues and s_c the centred target, a candidate with local cue ids
    ids scores

        r = sum(u[ids]) / sqrt(sum(K[ids, ids]) * |s_c|^2),
        u = Fc @ s_c,  K = Fc @ Fc.T,

    which equals the dense Pearson up to round-off (within 1e-12 in the
    tests).  The rounding error of sum(K[ids, ids]) grows as the
    candidate's rows cancel; a candidate whose sum falls below
    CANCELLATION times sum(diag(K)[ids]) is scored from the sum of its
    rows of F.W instead, as the dense path scores it.  Each path takes
    at most one cue per position from that position's top k, so
    |U| <= k * max_len whatever the inventory size: no (candidates,
    cues), (candidates, dims) or (cues, cues) array is built.
    """
    if not candidates:
        return []
    n = len(candidates)
    lengths = np.fromiter((len(path) for path, _ in candidates), dtype=np.int64, count=n)
    flat = np.fromiter(chain.from_iterable(path for path, _ in candidates), dtype=np.int64,
                       count=int(lengths.sum()))
    U, local = np.unique(flat, return_inverse=True)
    pad = U.size  # index of the zero entry of u and K
    ids = np.full((n, int(lengths.max())), pad)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = local
    ids.sort(axis=1)
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = pad  # a repeated gram counts once
    # Sorted again, candidates with the same cue set get the same row, and
    # so the same score to the bit: they tie, as their dense rows do.
    ids.sort(axis=1)

    rows = F.W[U]
    Fc = np.zeros((pad + 1, rows.shape[1]))  # the pad's row stays zero
    np.subtract(rows, rows.mean(axis=1, keepdims=True), out=Fc[:pad])
    Fc[:pad][(rows == rows[:, :1]).all(axis=1)] = 0.0  # a constant row has no variance
    s = np.asarray(s_target, dtype=np.float64)
    s_c = np.zeros_like(s) if (s == s[0]).all() else s - s.mean()
    u = Fc @ s_c
    K = Fc @ Fc.T

    num = u[ids].sum(axis=1)
    sq = np.zeros(n)
    for a in range(ids.shape[1]):
        sq += K[ids[:, a : a + 1], ids].sum(axis=1)
    cancelled = np.flatnonzero(sq < CANCELLATION * np.diag(K)[ids].sum(axis=1))
    for i in cancelled:
        p = rows[ids[i][ids[i] < pad]].sum(axis=0)
        p_c = np.zeros_like(p) if (p == p[0]).all() else p - p.mean()
        num[i], sq[i] = p_c @ s_c, p_c @ p_c
    den = sq * (s_c @ s_c)  # > 0 unless either side has no variance
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(den > 0, num / np.sqrt(den), np.nan)
    # Only the top_n smallest keys, and keys tied with the last of them,
    # can be ranked among the first top_n.
    key = np.where(np.isnan(r), 2.0, -r)
    pick = range(n)
    if top_n is not None and top_n < n:
        pick = np.flatnonzero(key <= np.partition(key, top_n - 1)[top_n - 1]).tolist()
    surfaces = {}
    for i in pick:
        path = candidates[i][0]
        surfaces[i] = _surface(m.tokens[path[0]] + [m.tokens[j][-1] for j in path[1:]], m.cfg)
    kept = sorted(pick, key=lambda i: (key[i], surfaces[i]))[:top_n]
    return [CandidatePath(grams=tuple(m.inventory.cues[j] for j in candidates[i][0]),
                          surface=surfaces[i], tolerated_count=candidates[i][1], score=float(r[i]))
            for i in kept]


# The vector the positional model reads (config key production.input): the
# meaning mapped through G, or the meaning itself.
INPUT_SPACES = ("predicted_cues", "semantics")


@dataclass(frozen=True)
class ProductionParams:
    k: int = 10
    theta: float = 0.008
    tolerance: bool = False
    max_tolerated: int = 2
    input_space: str = "predicted_cues"  # one of INPUT_SPACES
    top_n: int = 5
    max_paths: Optional[int] = None

    def __post_init__(self):
        _check_search_ranges(self.k, self.theta, self.max_tolerated, self.max_paths)
        if self.input_space not in INPUT_SPACES:
            raise ProductionError(f"unknown input space: {self.input_space!r}")
        if self.top_n < 1:
            raise ProductionError(f"top_n must be >= 1, got {self.top_n}")


@dataclass
class ProductionResult:
    best: Optional[CandidatePath]
    top_n: list[CandidatePath]
    n_candidates: int
    truncated: bool = False  # max_paths stopped the path search


def produce(
    s_target: np.ndarray,
    G: Mapping,
    m: PositionalSupportModel,
    F: Mapping,
    params: ProductionParams = ProductionParams(),
    support: Optional[np.ndarray] = None,
) -> ProductionResult:
    """Synthesize the best-supported form for a target meaning.

    The target meaning is mapped to a predicted cue vector through the
    production matrix; paths are enumerated from the positional support
    of either that vector or the raw meaning, and reranked by synthesis
    score.  support is the item's (n_attested,) row of
    m.search_supports when the caller has already computed supports for
    a batch of items.  An empty candidate set is a production failure.
    """
    s_target = np.asarray(s_target, dtype=np.float64)
    if support is None:
        x = s_target @ G.W if params.input_space == "predicted_cues" else s_target
        support = m.search_supports(x[None, :], params)[0]
    candidates = enumerate_paths(
        m, support, k=params.k, theta=params.theta,
        tolerance=params.tolerance, max_tolerated=params.max_tolerated,
        max_paths=params.max_paths,
    )
    ranked = synthesize_by_analysis(candidates, F, s_target, m, top_n=params.top_n)
    return ProductionResult(
        best=ranked[0] if ranked else None,
        top_n=ranked,
        n_candidates=len(candidates),
        truncated=candidates.truncated,
    )


def production_rows(rows: Iterable[tuple[str, ProductionResult]]):
    """Per-item CSV rows, header first: target, best candidate, match flag,
    ranked top-n, and truncated.  truncated is 1 when max_paths stopped
    the item's path search with nodes left to visit; those nodes may hold
    no complete path, so an item can be flagged that lost no candidate."""
    yield ["target", "best", "match", "rank", "candidate", "score", "tolerated", "truncated"]
    for target, res in rows:
        best = res.best.surface if res.best else ""
        match = int(res.best is not None and res.best.surface == target)
        truncated = int(res.truncated)
        if not res.top_n:
            yield [target, best, match, "", "", "", "", truncated]
        for rank, cand in enumerate(res.top_n, start=1):
            yield [target, best, match, rank, cand.surface, repr(cand.score),
                   cand.tolerated_count, truncated]
