"""Independent brute-force references for the inference tests.

Everything here enumerates explicitly: channel likelihoods sum over all
event sequences by recursion (no shared dynamic program with the library),
and posteriors marginalise over every message. Only usable for tiny
instances, which is the point.
"""

import itertools

import numpy as np


def trace_likelihood(x, y, p_ins, p_del, p_sub, p_cor, alphabet_size):
    """Pr(trace = y | input = x) by recursive enumeration of event walks.

    The walk consumes x left to right; before each consume any run of
    insertions may emit symbols. It stops when x is exhausted, so y must be
    fully produced by then.
    """
    n, r = len(x), len(y)

    def rec(i, j):
        if i == n:
            return 1.0 if j == r else 0.0
        total = 0.0
        if j < r:  # insertion emitting exactly y[j]
            total += (p_ins / alphabet_size) * rec(i, j + 1)
        total += p_del * rec(i + 1, j)
        if j < r:  # substitute/correct emitting exactly y[j]
            if y[j] == x[i]:
                total += p_cor * rec(i + 1, j + 1)
            elif alphabet_size > 1:
                total += (p_sub / (alphabet_size - 1)) * rec(i + 1, j + 1)
        return total

    return rec(0, 0)


def joint_posteriors(encoder, traces, params, prior, offset=None):
    """Exact message posteriors by summing over every message sequence.

    Returns (posterior rows (L, |M|), total log-likelihood).
    """
    size = encoder.alphabet.size
    L = encoder.L
    rows = np.zeros((L, size))
    total = 0.0
    for msg in itertools.product(range(size), repeat=L):
        msg = np.array(msg, dtype=np.int8)
        w = float(np.prod([prior[l][msg[l]] for l in range(L)]))
        if w == 0.0:
            continue
        x = encoder.encode(msg)
        if offset is not None:
            x = (x + np.asarray(offset)) % size
        for y in traces:
            w *= trace_likelihood(x, y, params.p_ins, params.p_del,
                                  params.p_sub, params.p_cor, size)
            if w == 0.0:
                break
        if w == 0.0:
            continue
        total += w
        for l in range(L):
            rows[l, msg[l]] += w
    if total <= 0.0:
        raise ValueError("oracle: traces unexplainable")
    return rows / total, np.log(total)


def enumerate_trellis_states(encoder, traces, params, prior):
    """Independent exhaustive trellis constructor for structure comparisons.

    Walks the stage rules over explicit state tuples with plain dict/set
    bookkeeping, then prunes states that no origin-to-absorbing path uses.
    Returns (number of vertices, number of edges, sorted edge weights).
    """
    K = len(traces)
    R = [len(y) for y in traces]
    size = encoder.alphabet.size
    p = params

    # state: (layer_tag, q_or_combo, pointers, m, x)
    # layer_tag mirrors the construction: ("b", l) boundary, ("i", l) input,
    # ("d", l, c, k) ids, ("p", l, c) post
    edges = {}  # (state, state) -> weight

    def add(a, b, w):
        if w > 0.0:
            edges[(a, b)] = edges.get((a, b), 0.0) + w

    origin = ("b", 0, encoder.q_init, (0,) * K, None, None)
    frontier = {origin}
    seen = {origin}
    L = encoder.L
    while frontier:
        nxt = set()
        for st in frontier:
            tag = st[0]
            if tag == "b":
                _, l, q, ptr, _, _ = st
                if l == L:
                    continue
                for m in range(size):
                    w = prior[l][m]
                    if w <= 0:
                        continue
                    q2, em = encoder.transition(q, m, l)
                    to = ("i", l, (q, m), ptr, m, em[0])
                    add(st, to, w)
                    nxt.add(to)
            elif tag == "i":
                _, l, combo, ptr, m, x = st
                to = ("d", l, 0, 0, combo, ptr, m, x)
                add(st, to, 1.0)
                nxt.add(to)
            elif tag == "d":
                _, l, c, k, combo, ptr, m, x = st
                u = encoder.emission_counts[l]
                # intra-layer insertion
                if ptr[k] < R[k] and p.p_ins > 0:
                    ptr2 = ptr[:k] + (ptr[k] + 1,) + ptr[k + 1:]
                    to = ("d", l, c, k, combo, ptr2, m, x)
                    add(st, to, p.p_ins / size)
                    nxt.add(to)
                succ_tag = ("d", l, c, k + 1) if k + 1 < K else ("p", l, c)

                def succ(ptr_new):
                    if k + 1 < K:
                        return ("d", l, c, k + 1, combo, ptr_new, m, x)
                    return ("p", l, c, combo, ptr_new, m, x)

                if p.p_del > 0:
                    to = succ(ptr)
                    add(st, to, p.p_del)
                    nxt.add(to)
                if ptr[k] < R[k]:
                    ptr2 = ptr[:k] + (ptr[k] + 1,) + ptr[k + 1:]
                    if traces[k][ptr[k]] == x:
                        w = p.p_cor
                    else:
                        w = p.p_sub / (size - 1)
                    if w > 0:
                        to = succ(ptr2)
                        add(st, to, w)
                        nxt.add(to)
            else:  # post
                _, l, c, combo, ptr, m, x = st
                u = encoder.emission_counts[l]
                q_prev, m_in = combo
                if c + 1 < u:
                    q2, em = encoder.transition(q_prev, m_in, l)
                    to = ("d", l, c + 1, 0, combo, ptr, m, em[c + 1])
                    add(st, to, 1.0)
                    nxt.add(to)
                else:
                    q2, _ = encoder.transition(q_prev, m_in, l)
                    to = ("b", l + 1, q2, ptr, None, None)
                    add(st, to, 1.0)
                    nxt.add(to)
        frontier = nxt - seen
        seen |= nxt

    absorbing = {("b", L, q, tuple(R), None, None) for q in range(encoder.n_states)}
    # backward closure: keep states from which an absorbing state is reachable
    rev = {}
    for (a, b), _ in edges.items():
        rev.setdefault(b, []).append(a)
    keep = set(s for s in absorbing if s in seen)
    stack = list(keep)
    while stack:
        s = stack.pop()
        for a in rev.get(s, []):
            if a not in keep:
                keep.add(a)
                stack.append(a)
    # forward closure from the origin within kept states
    fwd = {}
    for (a, b), _ in edges.items():
        if a in keep and b in keep:
            fwd.setdefault(a, []).append(b)
    reach = {origin} if origin in keep else set()
    stack = [origin] if reach else []
    while stack:
        s = stack.pop()
        for b in fwd.get(s, []):
            if b not in reach:
                reach.add(b)
                stack.append(b)
    weights = [w for (a, b), w in edges.items() if a in reach and b in reach]
    return len(reach), len(weights), np.sort(weights)


def random_params(rng, max_ins=0.4):
    """A valid random parameter vector, occasionally with zero entries."""
    from idsrecon import IDSParams

    while True:
        v = rng.dirichlet((1.0, 1.0, 1.0, 3.0))
        if rng.random() < 0.25:
            v[rng.integers(3)] = 0.0
            v = v / v.sum()
        if v[0] <= max_ins:
            return IDSParams(*[float(t) for t in v])


def random_prior(rng, L, size):
    if rng.random() < 0.5:
        return np.full((L, size), 1.0 / size)
    pr = rng.dirichlet(np.ones(size) * 2.0, size=L)
    pr = np.maximum(pr, 1e-3)
    return pr / pr.sum(axis=1, keepdims=True)
