"""Independent reference implementations used only by the tests.

Each routine here answers a question the library also answers, but by a
deliberately different route (path enumeration instead of reachability,
moralization instead of mark-walking, generic numeric optimization
instead of coordinate ascent), so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy import optimize

from agfit import AncestralGraph, ParamSet, build_sigma, log_likelihood
from agfit.errors import AgfitError, GraphError
from agfit.params import IndexMap

TAIL = 0
ARROW = 1


_last = [None, None]  # the graph asked about last, and its _tables


def _tables(g):
    """Per vertex of ``g``, its steps and its ancestors, from the edge lists.

    ``steps[v]`` lists ``(w, mark at v, mark at w)`` for every edge at v:
    neighbours, children, parents, then spouses, each in ascending order.
    ``anc[v]`` is v with every vertex that has a directed path into it.
    Both are built once per graph: the tests ask many queries of a graph
    in a row.
    """
    if _last[0] is not g:
        n = g.n
        steps = [[[] for _ in range(4)] for _ in range(n)]
        parents = [[] for _ in range(n)]
        for a, b in g.undirected_pairs:
            steps[a][0].append((b, TAIL, TAIL))
            steps[b][0].append((a, TAIL, TAIL))
        for t, h in g.directed_pairs:
            steps[t][1].append((h, TAIL, ARROW))
            steps[h][2].append((t, ARROW, TAIL))
            parents[h].append(t)
        for a, b in g.bidirected_pairs:
            steps[a][3].append((b, ARROW, ARROW))
            steps[b][3].append((a, ARROW, ARROW))
        steps = [[step for kind in by_kind for step in sorted(kind)] for by_kind in steps]
        anc = []
        for v in range(n):
            seen, stack = {v}, [v]
            while stack:
                for u in parents[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            anc.append(frozenset(seen))
        _last[:] = [g, (steps, anc)]
    return _last[1]


def brute_m_connecting(g: AncestralGraph, i: int, j: int, c) -> bool:
    """m-connection decided by enumerating simple paths."""
    c = frozenset(c)
    steps, anc = _tables(g)
    anc_c = frozenset().union(*(anc[v] for v in c))

    def extend(v, mark_in, visited):
        # v is an intermediate vertex entered with mark_in
        for w, mark_v, mark_w in steps[v]:
            if w in visited:
                continue
            collider = mark_in == ARROW and mark_v == ARROW
            if collider:
                if v not in anc_c:
                    continue
            elif v in c:
                continue
            if w == j:
                return True
            if extend(w, mark_w, visited | {w}):
                return True
        return False

    for w, _, mark_w in steps[i]:
        if w == j:
            return True
        if extend(w, mark_w, {i, w}):
            return True
    return False


def moral_d_separated(g: AncestralGraph, a, b, c) -> bool:
    """Classic d-separation for DAGs via moralization of the ancestral set."""
    assert not g.undirected_pairs and not g.bidirected_pairs
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    keep = g.ancestors(a | b | c)
    adj = {v: set() for v in keep}
    for t, h in g.directed_pairs:
        if t in keep and h in keep:
            adj[t].add(h)
            adj[h].add(t)
    for v in keep:
        ps = sorted(p for p in g.pa(v) if p in keep)
        for x, y in combinations(ps, 2):
            adj[x].add(y)
            adj[y].add(x)
    frontier = [v for v in a if v not in c]
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        if v in b:
            return False
        for w in adj[v]:
            if w not in c and w not in seen:
                seen.add(w)
                frontier.append(w)
    return True


def naive_covariance(y: np.ndarray, mean_adjusted: bool = False) -> np.ndarray:
    """Entrywise double loop, no matrix algebra."""
    p, n = y.shape
    y = y.copy()
    if mean_adjusted:
        for i in range(p):
            y[i] -= sum(y[i]) / n
    s = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s[i, j] = sum(y[i, t] * y[j, t] for t in range(n)) / n
    return s


def _reachable(start, step) -> set:
    """Vertices reached from ``start`` by one or more moves of ``step``."""
    out = set()
    stack = list(start)
    while stack:
        for w in step(stack.pop()):
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def _augmented_graph(g: AncestralGraph, i: int, j: int) -> dict:
    """Neighbour sets of the augmented graph of G_A, A = ant({i, j}): two
    vertices of A are adjacent when adjacent in G, or when both lie in D or
    pa(D) for one district D of G_A."""
    a = _reachable((i, j), lambda v: g.pa(v) | g.ne(v)) | {i, j}
    nbr = {v: (g.ne(v) | g.pa(v) | g.ch(v) | g.sp(v)) & a for v in a}
    todo = set(a)
    while todo:
        v = todo.pop()
        district = _reachable((v,), lambda u: g.sp(u) & a) | {v}
        todo -= district
        married = district.union(*(g.pa(u) for u in district))
        for u in married:
            nbr[u] |= married - {u}
    return nbr


def _cut_size(nbr: dict, i: int, j: int, removed) -> int:
    """Size of a smallest i-j vertex cut of the graph ``nbr`` less ``removed``.

    By Menger's theorem, the most i-j paths with no inner vertex in common,
    found by augmenting paths once each vertex v is split into an entry
    (v, 0) and an exit (v, 1) joined by an arc of capacity 1.
    """
    source, sink = (i, 1), (j, 0)
    flow = set()  # saturated arcs
    paths = 0
    while True:
        parent = {source: None}
        stack = [source]
        while stack and sink not in parent:
            x = stack.pop()
            v, side = x
            if side:  # on to a neighbour's entry, or back to the entry of v
                steps = [(w, 0) for w in nbr[v] if w not in removed and (x, (w, 0)) not in flow]
                steps += [(v, 0)] if ((v, 0), x) in flow else []
            else:  # on to the exit of v, or back along the flow into v
                steps = [] if (x, (v, 1)) in flow else [(v, 1)]
                steps += [(u, 1) for u in nbr[v] if ((u, 1), x) in flow]
            for y in steps:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        if sink not in parent:
            return paths
        y = sink
        while parent[y] is not None:
            x = parent[y]
            if (y, x) in flow:
                flow.remove((y, x))
            else:
                flow.add((x, y))
            y = x
        paths += 1


def separating_set_by_flows(g: AncestralGraph, i: int, j: int):
    """Smallest separating set of a non-adjacent pair, or None, for graphs
    beyond the reach of exhaustive search.

    The lexicographically first minimum i-j vertex cut of the augmented
    graph of G_A, A = ant({i, j}), over frozensets of saturated arcs: every
    vertex of A, in ascending order, is kept while a fresh maximum flow
    shows that it lowers the cut size by one.
    """
    nbr = _augmented_graph(g, i, j)
    if j in nbr[i]:
        return None
    cut = set()
    k = _cut_size(nbr, i, j, cut)
    for v in sorted(nbr.keys() - {i, j}):
        if len(cut) == k:
            break
        if _cut_size(nbr, i, j, cut | {v}) < k - len(cut):
            cut.add(v)
    return frozenset(cut)


# -- graph generation ---------------------------------------------------------


def all_ancestral_graphs(p: int):
    """Every ancestral graph on p vertices (all edge-type assignments)."""
    pairs = list(combinations(range(p), 2))
    for codes in product(range(5), repeat=len(pairs)):
        und, dird, bid = [], [], []
        for (i, j), code in zip(pairs, codes):
            if code == 0:
                continue
            if code == 1:
                und.append((i, j))
            elif code == 2:
                dird.append((i, j))
            elif code == 3:
                dird.append((j, i))
            else:
                bid.append((i, j))
        try:
            yield AncestralGraph(p, undirected=und, directed=dird, bidirected=bid)
        except GraphError:
            continue


def all_ancestral_graphs_pruned(p: int):
    """Same output as :func:`all_ancestral_graphs`, pruned for speed.

    Branches that already violate the no-arrowhead rule for undirected
    neighbours are cut early; the constructor still has the final word
    on every yielded graph.
    """
    pairs = list(combinations(range(p), 2))
    n_pairs = len(pairs)
    und = []
    dird = []
    bid = []
    has_und = [False] * p
    has_arrow = [False] * p

    def rec(k):
        if k == n_pairs:
            try:
                yield AncestralGraph(p, undirected=und, directed=dird, bidirected=bid)
            except GraphError:
                pass
            return
        i, j = pairs[k]
        # absent edge
        yield from rec(k + 1)
        # undirected: neither endpoint may carry an arrowhead
        if not has_arrow[i] and not has_arrow[j]:
            und.append((i, j))
            saved = has_und[i], has_und[j]
            has_und[i] = has_und[j] = True
            yield from rec(k + 1)
            has_und[i], has_und[j] = saved
            und.pop()
        # i -> j
        if not has_und[j]:
            dird.append((i, j))
            saved_j = has_arrow[j]
            has_arrow[j] = True
            yield from rec(k + 1)
            has_arrow[j] = saved_j
            dird.pop()
        # j -> i
        if not has_und[i]:
            dird.append((j, i))
            saved_i = has_arrow[i]
            has_arrow[i] = True
            yield from rec(k + 1)
            has_arrow[i] = saved_i
            dird.pop()
        # i <-> j
        if not has_und[i] and not has_und[j]:
            bid.append((i, j))
            saved = has_arrow[i], has_arrow[j]
            has_arrow[i] = has_arrow[j] = True
            yield from rec(k + 1)
            has_arrow[i], has_arrow[j] = saved
            bid.pop()

    yield from rec(0)


def random_ancestral_graph(rng, p: int, q: float = 0.35, max_tries: int = 500):
    """Rejection sampler over mixed graphs; returns a valid ancestral graph."""
    for _ in range(max_tries):
        order = list(rng.permutation(p))
        rank = {v: k for k, v in enumerate(order)}
        u_size = int(rng.integers(0, p + 1))
        uset = set(order[:u_size])
        und, dird, bid = [], [], []
        for i, j in combinations(range(p), 2):
            if rng.random() >= q:
                continue
            if i in uset and j in uset:
                und.append((i, j))
            elif i in uset or j in uset:
                u, d = (i, j) if i in uset else (j, i)
                dird.append((u, d))
            elif rng.random() < 0.5:
                a, b = (i, j) if rank[i] < rank[j] else (j, i)
                dird.append((a, b))
            else:
                bid.append((i, j))
        try:
            return AncestralGraph(p, undirected=und, directed=dird, bidirected=bid)
        except GraphError:
            continue
    raise RuntimeError("no valid draw")


# The smallest inducing path: 0 <-> 1 <-> 2 <-> 3 with 1 -> 3 and 2 -> 0
# joins the non-adjacent pair 0, 3, so no set m-separates it.
GADGET_DIRECTED = ((1, 3), (2, 0))
GADGET_BIDIRECTED = ((0, 1), (1, 2), (2, 3))


def random_gadget_graph(rng, p: int, q: float = 0.35, max_tries: int = 500):
    """Random ancestral graph with the inducing-path gadget planted on four
    random vertices; the draw is never maximal.

    Edges of the base draw among the four vertices are replaced by the
    gadget's; a combination that is not ancestral is drawn again.
    """
    for _ in range(max_tries):
        g = random_ancestral_graph(rng, p, q)
        v = [int(x) for x in rng.choice(p, size=4, replace=False)]
        inside = set(v)

        def keep(pairs):
            return [e for e in pairs if not (e[0] in inside and e[1] in inside)]

        def plant(pairs):
            return [(v[a], v[b]) for a, b in pairs]

        try:
            return AncestralGraph(
                p,
                undirected=keep(g.undirected_pairs),
                directed=keep(g.directed_pairs) + plant(GADGET_DIRECTED),
                bidirected=keep(g.bidirected_pairs) + plant(GADGET_BIDIRECTED),
                labels=g.labels,
            )
        except GraphError:
            continue
    raise RuntimeError("no valid draw")


def random_dag(rng, p: int, q: float = 0.4) -> AncestralGraph:
    order = list(rng.permutation(p))
    rank = {v: k for k, v in enumerate(order)}
    dird = []
    for i, j in combinations(range(p), 2):
        if rng.random() < q:
            a, b = (i, j) if rank[i] < rank[j] else (j, i)
            dird.append((a, b))
    return AncestralGraph(p, directed=dird)


def random_params(g: AncestralGraph, rng, strength: float = 0.7) -> ParamSet:
    """Random valid parameters: diagonally dominant lam and omega."""
    un = sorted(g.un_vertices)
    disp = sorted(set(range(g.n)) - g.un_vertices)
    upos = {v: k for k, v in enumerate(un)}
    dpos = {v: k for k, v in enumerate(disp)}

    lam = np.zeros((len(un), len(un)))
    for a, b in g.undirected_pairs:
        lam[upos[a], upos[b]] = lam[upos[b], upos[a]] = rng.uniform(-strength, strength)
    for k in range(len(un)):
        lam[k, k] = (1.0 + np.sum(np.abs(lam[k]))) * rng.uniform(1.0, 1.5)

    omega = np.zeros((len(disp), len(disp)))
    for a, b in g.bidirected_pairs:
        omega[dpos[a], dpos[b]] = omega[dpos[b], dpos[a]] = rng.uniform(
            -strength, strength
        )
    for k in range(len(disp)):
        omega[k, k] = (1.0 + np.sum(np.abs(omega[k]))) * rng.uniform(1.0, 1.5)

    beta = np.zeros((g.n, g.n))
    for t, h in g.directed_pairs:
        beta[h, t] = rng.uniform(-1.0, 1.0)
    return ParamSet.for_graph(g, lam, beta, omega)


def random_three_kind_graphs(rng, count: int, p_lo: int = 6, p_hi: int = 11) -> list:
    """``count`` random ancestral graphs that each have undirected,
    directed and bidirected edges."""
    found = []
    while len(found) < count:
        g = random_ancestral_graph(rng, int(rng.integers(p_lo, p_hi)), q=0.5)
        if g.undirected_pairs and g.directed_pairs and g.bidirected_pairs:
            found.append(g)
    return found


def dense_sigma(params: ParamSet) -> np.ndarray:
    """``inv(I - beta) @ blockdiag(inv(lam), omega) @ inv(I - beta).T`` with
    dense numpy inverses over all vertices."""
    n = params.graph.n
    un = list(params.un_map.vertices)
    disp = list(params.disp_map.vertices)
    block = np.zeros((n, n))
    if un:
        block[np.ix_(un, un)] = np.linalg.inv(params.lam)
    if disp:
        block[np.ix_(disp, disp)] = params.omega
    inv = np.linalg.inv(np.eye(n) - params.beta)
    return inv @ block @ inv.T


def random_spd(rng, p: int) -> np.ndarray:
    a = rng.standard_normal((p, p + 3))
    return a @ a.T / (p + 3) + 0.25 * np.eye(p)


def partial_covariance(sigma: np.ndarray, i: int, j: int, c) -> float:
    c = sorted(c)
    if not c:
        return float(sigma[i, j])
    scc = sigma[np.ix_(c, c)]
    return float(sigma[i, j] - sigma[i, c] @ np.linalg.solve(scc, sigma[c, j]))


# -- generic likelihood optimizer ---------------------------------------------


def _free_coords(g: AncestralGraph):
    un = sorted(g.un_vertices)
    disp = sorted(set(range(g.n)) - g.un_vertices)
    upos = {v: k for k, v in enumerate(un)}
    dpos = {v: k for k, v in enumerate(disp)}
    coords = []
    for v in un:
        coords.append(("lam_d", upos[v], upos[v]))
    for a, b in g.undirected_pairs:
        coords.append(("lam_o", upos[a], upos[b]))
    for t, h in g.directed_pairs:
        coords.append(("beta", h, t))
    for v in disp:
        coords.append(("om_d", dpos[v], dpos[v]))
    for a, b in g.bidirected_pairs:
        coords.append(("om_o", dpos[a], dpos[b]))
    return un, disp, coords


def _unpack(g, un, disp, coords, x):
    lam = np.zeros((len(un), len(un)))
    beta = np.zeros((g.n, g.n))
    omega = np.zeros((len(disp), len(disp)))
    for (kind, a, b), v in zip(coords, x):
        if kind == "lam_d":
            lam[a, a] = v
        elif kind == "lam_o":
            lam[a, b] = lam[b, a] = v
        elif kind == "beta":
            beta[a, b] = v
        elif kind == "om_d":
            omega[a, a] = v
        else:
            omega[a, b] = omega[b, a] = v
    return lam, beta, omega


def best_loglik_numeric(g, stats, restarts: int = 20, seed: int = 0, maxiter: int = 6000):
    """Best log-likelihood a generic optimizer finds over the free parameters."""
    un, disp, coords = _free_coords(g)
    un_map_vertices = tuple(un)
    disp_map_vertices = tuple(disp)

    def neg_ll(x):
        lam, beta, omega = _unpack(g, un, disp, coords, x)
        params = ParamSet(
            g, lam, beta, omega, IndexMap(un_map_vertices), IndexMap(disp_map_vertices)
        )
        try:
            sigma = build_sigma(params)
            val = log_likelihood(sigma, stats)
        except (AgfitError, np.linalg.LinAlgError):
            return 1e10 + float(np.sum(x * x))
        if not np.isfinite(val):
            return 1e10
        return -val

    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_x = None
    for _ in range(restarts):
        x0 = []
        for kind, a, b in coords:
            if kind in ("lam_d", "om_d"):
                x0.append(rng.uniform(0.5, 2.0))
            elif kind == "beta":
                x0.append(rng.normal(0.0, 0.5))
            else:
                x0.append(rng.uniform(-0.2, 0.2))
        res = optimize.minimize(
            neg_ll,
            np.array(x0),
            method="Nelder-Mead",
            options={"maxiter": maxiter, "fatol": 1e-12, "xatol": 1e-10},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_x = res.x
    # polish the winner from its own endpoint
    res = optimize.minimize(
        neg_ll,
        best_x,
        method="Nelder-Mead",
        options={"maxiter": maxiter, "fatol": 1e-13, "xatol": 1e-11},
    )
    return max(best_val, -res.fun)


# -- reference ICF ------------------------------------------------------------


def icf_reference(g: AncestralGraph, s: np.ndarray, lam: np.ndarray, tolerance=1e-6,
                  max_cycles=5000):
    """Plain ICF from the sample covariance: every vertex step inverts
    ``omega[-i, -i]`` afresh with ``numpy.linalg``.

    Starts from ``beta = 0`` and the diagonal of ``s`` on the arrowhead
    block, visits those vertices in ascending order and stops once a cycle
    moves no entry (i, j) of the implied covariance by ``tolerance`` or
    more in correlation units, |change| / sqrt(s_ii s_jj), as
    ``agfit.fit`` does; ``lam`` is the fixed undirected-block concentration.
    Returns the implied covariance at the start and after each cycle.
    """
    n = g.n
    un = sorted(g.un_vertices)
    disp = sorted(set(range(n)) - g.un_vertices)
    pos = {v: k for k, v in enumerate(disp)}
    beta = np.zeros((n, n))
    omega = np.diag(s[disp, disp]).astype(float)
    d = np.sqrt(np.diag(s))
    scale = 1.0 / np.outer(d, d)

    def implied():
        psi = np.zeros((n, n))
        if un:
            psi[np.ix_(un, un)] = np.linalg.inv(lam)
        psi[np.ix_(disp, disp)] = omega
        a = np.linalg.inv(np.eye(n) - beta)
        return a @ psi @ a.T

    sigmas = [implied()]
    for _ in range(max_cycles):
        for i in disp:
            pa = sorted(g.pa(i))
            sp = sorted(g.sp(i))
            others = [v for v in disp if v != i]
            rest = [pos[v] for v in others]
            inv_rest = np.linalg.inv(omega[np.ix_(rest, rest)]) if rest else None
            sp_rows = [others.index(v) for v in sp]
            # covariates as linear combinations of the variables: the
            # parents, then the spouse pseudo-variables inv(omega[-i, -i])
            # applied to the residuals (I - beta) y of the other vertices
            x = np.zeros((len(pa) + len(sp), n))
            for r, j in enumerate(pa):
                x[r, j] = 1.0
            if sp:
                x[len(pa):] = inv_rest[sp_rows] @ (np.eye(n) - beta)[others]
            if len(x):
                coef = np.linalg.solve(x @ s @ x.T, x @ s[:, i])
                w_cond = s[i, i] - coef @ (x @ s[:, i])
            else:
                coef, w_cond = np.zeros(0), s[i, i]
            w_sp = coef[len(pa):]
            beta[i, :] = 0.0
            beta[i, pa] = coef[: len(pa)]
            omega[pos[i], :] = 0.0
            omega[:, pos[i]] = 0.0
            for v, w in zip(sp, w_sp):
                omega[pos[i], pos[v]] = omega[pos[v], pos[i]] = w
            quad = w_sp @ inv_rest[np.ix_(sp_rows, sp_rows)] @ w_sp if sp else 0.0
            omega[pos[i], pos[i]] = w_cond + quad
        sigmas.append(implied())
        if np.max(np.abs(sigmas[-1] - sigmas[-2]) * scale) < tolerance:
            break
    return sigmas
