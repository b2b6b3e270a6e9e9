"""Independent brute-force references for the inference tests.

Everything here enumerates explicitly: channel likelihoods sum over all
event sequences by recursion (no shared dynamic program with the library),
and posteriors marginalise over every message. Only usable for tiny
instances, which is the point.
"""

import itertools
import math

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


def layer_tags(encoder, K):
    """The trellis layers in construction order, as the tags
    `enumerate_trellis_states` gives its states: ("b", l) boundary before
    cycle l, ("i", l) input, ("d", l, c, k) the ids layer of codeword symbol
    c and trace k, ("p", l, c) post; ("b", L) is the last layer."""
    tags = []
    for l, u in enumerate(encoder.emission_counts):
        tags += [("b", l), ("i", l)]
        for c in range(u):
            tags += [("d", l, c, k) for k in range(K)] + [("p", l, c)]
    return tags + [("b", encoder.L)]


def lattice_offsets(encoder, r, delta):
    """The map from (trace, position, pointer) to a Lattice's virtual cell,
    for one trace of length r: per layer of its one-trace trellis, the
    pointer lo(n) of cell 0, where n codeword symbols are explained at the
    layer and lo(n) = floor(n*r/N + 0.5) - delta (0 without a bound).
    Cell v then holds pointer lo(n) + v."""
    starts = np.concatenate([[0], np.cumsum(encoder.emission_counts)])
    out = []
    for tag in layer_tags(encoder, 1):
        n = starts[tag[1]] + (tag[2] + 1 if tag[0] in ("d", "p") else 0)
        out.append(0 if delta is None else math.floor(n * r / encoder.N + 0.5) - delta)
    return out


def assert_lattice_row_matches(lat_sweep, i, trellis, ref_sweep, layers):
    """Row i of a Lattice sweep against the sweep `ref_sweep` of that
    trace's own one-trace `trellis`, at each layer of `layers`: cropped to
    the trellis's clipped window the cells are equal to 1e-12 relative,
    and every cell outside it (a pointer outside [0, R]) is exactly 0."""
    lo = lattice_offsets(trellis.encoder, trellis.R[0], trellis.delta)
    for t in layers:
        block = lat_sweep.layers[t][i]
        (a, b), = trellis.layers[t].wins
        crop = slice(a - lo[t], b - lo[t] + 1)
        outside = np.ones(block.shape[1], bool)
        outside[crop] = False
        assert not block[:, outside].any(), t
        got = block[:, crop] * np.exp(lat_sweep.scales[t, i] - ref_sweep.scales[t])
        assert np.allclose(got, ref_sweep.layers[t], rtol=1e-12, atol=0), t


def _tag(state):
    return state[:{"b": 2, "i": 2, "d": 4, "p": 3}[state[0]]]


def enumerate_trellis_states(encoder, traces, params, prior, offset=None, delta=None):
    """Independent exhaustive trellis constructor for cell-by-cell checks.

    Walks the stage rules over explicit state tuples with plain dict/set
    bookkeeping, then runs its own forward and backward passes over the
    resulting edges. `offset` is added to the emitted codeword symbols, as
    the scrambling does. A drift bound `delta` keeps only states whose
    every trace pointer lies in its window: after n codeword symbols, trace
    k's pointer is within floor(n*R_k/N + 0.5) +- delta, clipped to
    [0, R_k]. A boundary or input layer of cycle l counts the symbols of
    the cycles before it; the ids and post layers of the cycle's symbol c
    count that symbol too, since it is explained in every trace at once.
    Returns {layer tag: sorted forward x backward values of the layer's
    live states}, live meaning on some origin-to-absorbing path of positive
    weight; layers with no live state are absent.
    """
    K = len(traces)
    R = [len(y) for y in traces]
    size = encoder.alphabet.size
    p = params
    starts = np.concatenate([[0], np.cumsum(encoder.emission_counts)])
    N = int(starts[-1])

    def emitted(l, c, em):
        return em[c] if offset is None else (em[c] + offset[starts[l] + c]) % size

    def in_windows(st):
        if delta is None:
            return True
        n = starts[st[1]] + (st[2] + 1 if st[0] in ("d", "p") else 0)
        return all(abs(ptr - math.floor(n * r / N + 0.5)) <= delta
                   for ptr, r in zip(st[-3], R))

    # state: layer tag fields, then (q or combo, pointers, m, x)
    edges = {}  # (state, state) -> weight

    def add(a, b, w):
        # an edge of positive weight into a state inside the windows
        if w > 0.0 and in_windows(b):
            edges[(a, b)] = edges.get((a, b), 0.0) + w
            nxt.add(b)

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
                    to = ("i", l, (q, m), ptr, m, emitted(l, 0, em))
                    add(st, to, w)
            elif tag == "i":
                _, l, combo, ptr, m, x = st
                to = ("d", l, 0, 0, combo, ptr, m, x)
                add(st, to, 1.0)
            elif tag == "d":
                _, l, c, k, combo, ptr, m, x = st
                # intra-layer insertion
                if ptr[k] < R[k] and p.p_ins > 0:
                    ptr2 = ptr[:k] + (ptr[k] + 1,) + ptr[k + 1:]
                    to = ("d", l, c, k, combo, ptr2, m, x)
                    add(st, to, p.p_ins / size)

                def succ(ptr_new):
                    if k + 1 < K:
                        return ("d", l, c, k + 1, combo, ptr_new, m, x)
                    return ("p", l, c, combo, ptr_new, m, x)

                if p.p_del > 0:
                    to = succ(ptr)
                    add(st, to, p.p_del)
                if ptr[k] < R[k]:
                    ptr2 = ptr[:k] + (ptr[k] + 1,) + ptr[k + 1:]
                    if traces[k][ptr[k]] == x:
                        w = p.p_cor
                    else:
                        w = p.p_sub / (size - 1)
                    if w > 0:
                        to = succ(ptr2)
                        add(st, to, w)
            else:  # post
                _, l, c, combo, ptr, m, x = st
                u = encoder.emission_counts[l]
                q_prev, m_in = combo
                q2, em = encoder.transition(q_prev, m_in, l)
                if c + 1 < u:
                    to = ("d", l, c + 1, 0, combo, ptr, m, emitted(l, c + 1, em))
                else:
                    to = ("b", l + 1, q2, ptr, None, None)
                add(st, to, 1.0)
        frontier = nxt - seen
        seen |= nxt

    # every edge leads to a later layer, or within an ids layer to a larger pointer
    pos = {tag: i for i, tag in enumerate(layer_tags(encoder, K))}
    order = sorted(seen, key=lambda s: (pos[_tag(s)], sum(s[-3])))
    out = {}
    for (a, b), w in edges.items():
        out.setdefault(a, []).append((b, w))
    fwd = dict.fromkeys(seen, 0.0)
    fwd[origin] = 1.0
    for a in order:
        for b, w in out.get(a, ()):
            fwd[b] += fwd[a] * w
    bwd = dict.fromkeys(seen, 0.0)
    for a in reversed(order):
        if a[0] == "b" and a[1] == L and a[3] == tuple(R):
            bwd[a] = 1.0
        for b, w in out.get(a, ()):
            bwd[a] += w * bwd[b]
    values = {}
    for s in seen:
        if fwd[s] * bwd[s] > 0.0:
            values.setdefault(_tag(s), []).append(fwd[s] * bwd[s])
    return {tag: np.sort(v) for tag, v in values.items()}


def assert_cells_match(trellis, encoder, traces, params, offset=None, label=None):
    """Every cell of the trellis's forward and backward sweeps against the
    oracle under the trellis's drift bound: per layer, the cells where
    forward x backward is positive are as many as the oracle's live states
    there, with the same sorted values to 1e-9 relative."""
    values = enumerate_trellis_states(encoder, traces, params, uniform_prior(encoder),
                                      offset, trellis.delta)
    tags = layer_tags(encoder, len(traces))
    assert len(tags) == len(trellis.layers), label
    f, b = trellis.forward(), trellis.backward()
    for t, tag in enumerate(tags):
        fb = f.layers[t] * b.layers[t] * np.exp(f.scales[t] + b.scales[t])
        got = np.sort(fb[fb > 0])
        want = values.get(tag, np.empty(0))
        assert len(got) == len(want), (label, t, tag, len(got), len(want))
        assert np.allclose(got, want, rtol=1e-9, atol=0), (label, t, tag)


def uniform_prior(encoder):
    return np.full((encoder.L, encoder.msg_size), 1.0 / encoder.msg_size)


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
