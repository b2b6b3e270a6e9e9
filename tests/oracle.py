"""Independent brute-force references for the inference tests.

Everything here enumerates explicitly: channel likelihoods sum over all
event sequences by recursion (no shared dynamic program with the library),
and posteriors marginalise over every message. Only usable for tiny
instances, which is the point. BMALA is kept as its scalar per-trace loop,
the ground truth for the library's lockstep arrays.
"""

import itertools
import math

import numpy as np

from idsrecon.bmala import BENCH_STEPS, LOOKAHEAD, MIN_AGREE, RESYNC_SPAN, RESYNC_WINDOW


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
    """The map from (trace, position, pointer) to a lattice's cell, for one
    trace of length r: per layer of its one-trace trellis, the pointer lo(n)
    of cell 0, where n codeword symbols are explained at the layer and
    lo(n) = max(0, floor(n*r/N + 0.5) - delta) (0 without a bound). Cell v
    then holds pointer lo(n) + v."""
    starts = np.concatenate([[0], np.cumsum(encoder.emission_counts)])
    out = []
    for tag in layer_tags(encoder, 1):
        n = starts[tag[1]] + (tag[2] + 1 if tag[0] in ("d", "p") else 0)
        out.append(0 if delta is None else max(0, math.floor(n * r / encoder.N + 0.5) - delta))
    return out


def assert_lattice_row_matches(lat_sweep, i, trellis, ref_sweep, layers):
    """Row i of a lattice sweep against the sweep `ref_sweep` of that
    trace's own one-trace `trellis`, at each layer of `layers`: cropped to
    the trellis's clipped window [lo, hi] of the layer's position the cells
    are equal to 1e-12 relative, and every other cell is exactly 0."""
    lo = lattice_offsets(trellis.encoder, trellis.R[0], trellis.delta)
    for t in layers:
        block = lat_sweep.layers[t][i]
        n = trellis.layers[t].npos
        (a,), (b,) = trellis.lo[n, 0].tolist(), trellis.hi[n, 0].tolist()
        crop = slice(a - lo[t], b - lo[t] + 1)
        outside = np.ones(block.shape[-1], bool)
        outside[crop] = False
        assert not block[..., outside].any(), t
        got = block[..., crop] * np.exp(lat_sweep.scales[t, i] - ref_sweep.scales[t, 0])
        assert np.allclose(got, ref_sweep.layers[t][0], rtol=1e-12, atol=0), t


def _tag(state):
    return state[:{"b": 2, "i": 2, "d": 4, "p": 3}[state[0]]]


def trellis_edges(encoder, traces, params, prior, offset=None, delta=None, unreached=False):
    """Independent exhaustive trellis constructor.

    Walks the stage rules over explicit state tuples with plain dict/set
    bookkeeping, from the origin and, with `unreached`, from every boundary
    state inside the windows, so that states no path from the origin
    reaches are there too (with forward value 0). `offset` is added to the
    emitted codeword symbols, as the scrambling does. A drift bound `delta`
    keeps only states whose every trace pointer lies in its window: after n
    codeword symbols, trace k's pointer is within floor(n*R_k/N + 0.5) +-
    delta, clipped to [0, R_k]. A boundary or input layer of cycle l counts
    the symbols of the cycles before it; the ids and post layers of the
    cycle's symbol c count that symbol too, since it is explained in every
    trace at once. Returns (the states reached, ordered so that every edge
    leads to a later one; {state: [(successor, weight)]}; the origin; the
    absorbing states). An input state is ("i", l, (q, m), pointers, m, x)
    and a post state ("p", l, c, (q, m), pointers, m, x): message symbol m
    is s[-2].
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
    L = encoder.L
    frontier, states = {origin}, {encoder.q_init}
    for l in range(L + 1 if unreached else 0):
        n = int(starts[l])
        windows = [range(R[k] + 1) if delta is None else
                   range(max(0, math.floor(n * r / N + 0.5) - delta),
                         min(r, math.floor(n * r / N + 0.5) + delta) + 1)
                   for k, r in enumerate(R)]
        frontier |= {("b", l, q, ptr, None, None)
                     for q in states for ptr in itertools.product(*windows)}
        if l < L:
            states = {encoder.transition(q, m, l)[0] for q in states for m in range(size)}
    seen = set(frontier)
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
    ends = {s for s in seen if s[0] == "b" and s[1] == L and s[3] == tuple(R)}
    return order, out, origin, ends


def forward_backward(order, out, origin, ends):
    """The forward and backward values of every state of `trellis_edges`,
    each a plain sum over its in- or out-edges, and each state's entering
    mass: the sum over its in-edges from other layers only, which leaves
    out an ids layer's insertion edges."""
    fwd = dict.fromkeys(order, 0.0)
    enter = dict.fromkeys(order, 0.0)
    fwd[origin] = enter[origin] = 1.0
    for a in order:
        for b, w in out.get(a, ()):
            fwd[b] += fwd[a] * w
            if _tag(a) != _tag(b):
                enter[b] += fwd[a] * w
    bwd = dict.fromkeys(order, 0.0)
    for a in reversed(order):
        if a in ends:
            bwd[a] = 1.0
        for b, w in out.get(a, ()):
            bwd[a] += w * bwd[b]
    return fwd, bwd, enter


def enumerate_trellis_states(encoder, traces, params, prior, offset=None, delta=None):
    """Independent exhaustive trellis for cell-by-cell checks: the states
    and edges of `trellis_edges` under its drift bound, and their own
    forward and backward passes. Returns {layer tag: sorted entering mass x
    backward values of the layer's live states}, live meaning entered by
    some origin-to-absorbing path of positive weight; layers with no live
    state are absent. The entering mass of a state outside an ids layer is
    its forward value; in an ids layer it leaves out the insertion edges,
    so every layer is a cut whose values sum to the total mass.
    """
    order, out, origin, ends = trellis_edges(encoder, traces, params, prior, offset, delta)
    _, bwd, enter = forward_backward(order, out, origin, ends)
    values = {}
    for s in order:
        if enter[s] * bwd[s] > 0.0:
            values.setdefault(_tag(s), []).append(enter[s] * bwd[s])
    return {tag: np.sort(v) for tag, v in values.items()}


def assert_cells_match(trellis, encoder, traces, params, offset=None, label=None):
    """Every cell of the joint trellis's forward and backward sweeps (its
    one row) against the oracle under the trellis's drift bound: per layer,
    the cells where forward x backward is positive are as many as the
    oracle's live states there, with the same sorted values to 1e-9
    relative. A forward ids block holds the mass entering the layer, so it
    meets the oracle's entering mass (`enumerate_trellis_states`)."""
    values = enumerate_trellis_states(encoder, traces, params, uniform_prior(encoder),
                                      offset, trellis.delta)
    tags = layer_tags(encoder, len(traces))
    assert len(tags) == len(trellis.layers), label
    f, b = trellis.forward(), trellis.backward()
    for t, tag in enumerate(tags):
        fb = f.layers[t][0] * b.layers[t][0] * np.exp(f.scales[t, 0] + b.scales[t, 0])
        got = np.sort(fb[fb > 0])
        want = values.get(tag, np.empty(0))
        assert len(got) == len(want), (label, t, tag, len(got), len(want))
        assert np.allclose(got, want, rtol=1e-9, atol=0), (label, t, tag)


def uniform_prior(encoder):
    return np.full((encoder.L, encoder.msg_size), 1.0 / encoder.msg_size)


def _pow0(x, b):
    return 1.0 if b == 0.0 else x ** b


def trellis_bma_posteriors(encoder, traces, params, betas, delta=None, offset=None):
    """Trellis BMA's posterior rows of one cluster, by plain loops over each
    trace's explicit one-trace trellis (`trellis_edges`) and its exact
    forward and backward values (`forward_backward`).

    A trace with no path is dropped. The first half of the message is read
    by a forward exchange: one front per kept trace, started at the origin
    and summed over in-edges layer by layer. At the last post layer of
    cycle l < L//2, trace k's belief in message symbol m is the sum, over
    the layer's states of symbol m, of front_k times the exact backward
    value to the beta_b power, normalised. The posterior row of l is the
    product of the beliefs to the beta_o power, normalised; then each front
    is multiplied, at each state of symbol m, by gamma_k(m): its own belief
    to beta_i times every other kept trace's to beta_e. The second half is
    read the same way by a backward exchange from the absorbing states, at
    the input layers of cycles l >= L//2, against the exact forward values.
    A zero power of a zero is 1, and a layer's states are all those inside
    its windows, so with beta_b = 0 a backward front counts too where no
    path from the origin arrives.

    Returns per entry of `betas` the (L, |M|) posterior rows, or None where
    a belief, the combined belief or a gamma lost all its mass, or every
    trace was dropped."""
    prior = uniform_prior(encoder)
    L, M, half = encoder.L, encoder.msg_size, encoder.L // 2
    tags = layer_tags(encoder, 1)
    kept = []
    for y in traces:
        order, out, origin, ends = trellis_edges(encoder, [y], params, prior, offset, delta,
                                                 unreached=True)
        fwd, bwd, _ = forward_backward(order, out, origin, ends)
        if bwd[origin] <= 0.0:
            continue
        into, layer = {}, {tag: [] for tag in tags}
        for a in order:
            layer[_tag(a)].append(a)
            for b, w in out.get(a, ()):
                into.setdefault(b, []).append((a, w))
        kept.append((order, out, into, layer, origin, ends, fwd, bwd))
    first = {("p", l, encoder.emission_counts[l] - 1): l for l in range(half)}
    second = {("i", l): l for l in range(half, L)}

    def exchange(bp, back, reads, rows):
        """One half sweep; False once some mass is lost."""
        fronts = [dict.fromkeys(t[0], 0.0) for t in kept]
        for front, (_, _, _, _, origin, ends, _, _) in zip(fronts, kept):
            for s in ends if back else (origin,):
                front[s] = 1.0
        last = min(tags.index(t) for t in reads) if back else max(tags.index(t) for t in reads)
        for i in range(len(tags) - 1, last - 1, -1) if back else range(last + 1):
            tag = tags[i]
            for front, (_, out, into, layer, _, _, _, _) in zip(fronts, kept):
                for s in reversed(layer[tag]) if back else layer[tag]:
                    edges = out.get(s, ()) if back else into.get(s, ())
                    front[s] += sum(front[n] * w for n, w in edges)
            if tag not in reads:
                continue
            beliefs = []
            for front, (_, _, _, layer, _, _, fwd, bwd) in zip(fronts, kept):
                stale = fwd if back else bwd
                bel = np.zeros(M)
                for s in layer[tag]:
                    bel[s[-2]] += front[s] * _pow0(stale[s], bp.beta_b)
                if bel.sum() <= 0.0:
                    return False
                beliefs.append(bel / bel.sum())
            post = np.prod(beliefs, axis=0) ** bp.beta_o
            if post.sum() <= 0.0:
                return False
            rows[reads[tag]] = post / post.sum()
            for k, (front, (_, _, _, layer, _, _, _, _)) in enumerate(zip(fronts, kept)):
                gamma = np.ones(M)
                for j, bel in enumerate(beliefs):
                    gamma = gamma * np.array([_pow0(v, bp.beta_i if j == k else bp.beta_e)
                                              for v in bel])
                if gamma.max() <= 0.0:
                    return False
                for s in layer[tag]:
                    front[s] *= gamma[s[-2]]
        return True

    result = []
    for bp in betas:
        rows = np.zeros((L, M))
        ok = bool(kept) and all(exchange(bp, back, reads, rows)
                                for back, reads in ((False, first), (True, second)) if reads)
        result.append(rows if ok else None)
    return result


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


# ----------------------------------------------------------------------
# BMALA as the scalar loop: per output position, a Python loop over the
# traces and the lookahead windows, both sweeps over all n positions. The
# library steps a chunk's sweeps in lockstep as arrays and must equal this
# exactly.

def bmala_window_score(trace, start, ref):
    """Fraction of `ref` matched by trace[start:]; absent symbols mismatch."""
    if len(ref) == 0:
        return 1.0
    hits = 0
    for d, r in enumerate(ref):
        p = start + d
        if p < len(trace) and trace[p] == r:
            hits += 1
    return hits / len(ref)


def bmala_resync(trace, base, expected, out, pos):
    """Re-derive a pointer for a rejoining trace by matching its recent
    symbols against the consensus emitted while it sat out.

    Candidate pointers near `expected` are scored by aligning trace[p-w:p]
    to the last w consensus symbols; candidates below `base` (symbols the
    trace already consumed before benching) are never considered, so
    pointers stay monotone. Returns (new pointer, matched fraction).
    """
    w = min(RESYNC_WINDOW, pos)
    if w == 0:
        return max(base, expected), 1.0
    ref = out[pos - w:pos]
    best = (-1.0, 0)
    for d in range(-RESYNC_SPAN, RESYNC_SPAN + 1):
        p = expected + d
        if p < base or p > len(trace):
            continue
        hits = 0
        for i in range(w):
            q = p - w + i
            if 0 <= q < len(trace) and trace[q] == ref[i]:
                hits += 1
        score = hits / w
        if score > best[0] or (score == best[0] and abs(d) < abs(best[1])):
            best = (score, d)
    if best[0] < 0.0:
        return min(max(base, expected), len(trace)), 0.0
    return expected + best[1], best[0]


def bmala_sweep(traces, n, alphabet_size, pointer_log=None):
    """One BMALA sweep over all n positions of one cluster's traces.
    `pointer_log`, when a list, receives the pointer vector after every
    emitted position."""
    K = len(traces)
    ptr = [0] * K
    benched_until = [0] * K
    bench_pos = [0] * K  # consensus position at bench time, for rejoin pacing
    out = np.zeros(n, dtype=np.int8)

    for pos in range(n):
        # rejoin benched traces whose bench expired, re-deriving their
        # pointer from the consensus emitted while they sat out
        for k in range(K):
            if benched_until[k] == pos and pos > 0 and ptr[k] < len(traces[k]):
                expected = ptr[k] + (pos - bench_pos[k])
                new_ptr, score = bmala_resync(traces[k], ptr[k], expected, out, pos)
                if score >= MIN_AGREE:
                    ptr[k] = min(new_ptr, len(traces[k]))
                else:
                    benched_until[k] = pos + BENCH_STEPS
        active = [k for k in range(K)
                  if benched_until[k] <= pos and ptr[k] < len(traces[k])]
        if not active:
            # everyone benched or exhausted: recall the benched traces
            for k in range(K):
                if benched_until[k] > pos and ptr[k] < len(traces[k]):
                    expected = ptr[k] + (pos - bench_pos[k])
                    new_ptr, _ = bmala_resync(traces[k], ptr[k], expected, out, pos)
                    ptr[k] = min(new_ptr, len(traces[k]))
                    benched_until[k] = pos
            active = [k for k in range(K) if ptr[k] < len(traces[k])]
            if not active:
                break  # all traces exhausted; remaining output stays padded
        votes = np.zeros(alphabet_size, dtype=np.int32)
        for k in active:
            votes[traces[k][ptr[k]]] += 1
        s_hat = int(np.argmax(votes))  # plurality, ties to the lowest symbol
        out[pos] = s_hat

        agree = [k for k in active if traces[k][ptr[k]] == s_hat]
        # consensus lookahead: per offset, plurality of the agreeing traces'
        # post-advance symbols
        ref = []
        for d in range(LOOKAHEAD):
            v = np.zeros(alphabet_size, dtype=np.int32)
            any_vote = False
            for k in agree:
                p = ptr[k] + 1 + d
                if p < len(traces[k]):
                    v[traces[k][p]] += 1
                    any_vote = True
            if not any_vote:
                break
            ref.append(int(np.argmax(v)))

        for k in active:
            if traces[k][ptr[k]] == s_hat:
                ptr[k] += 1
                continue
            tr = traces[k]
            s_sub = bmala_window_score(tr, ptr[k] + 1, ref)
            s_del = bmala_window_score(tr, ptr[k], ref)
            if ptr[k] + 1 < len(tr) and tr[ptr[k] + 1] == s_hat:
                s_ins = bmala_window_score(tr, ptr[k] + 2, ref)
            else:
                s_ins = -1.0
            best = max(s_sub, s_del, s_ins)
            if best < MIN_AGREE:
                # cannot explain the disagreement: bench the trace; its
                # pointer freezes until it resyncs on rejoin
                benched_until[k] = pos + BENCH_STEPS
                bench_pos[k] = pos
            elif s_sub >= s_del and s_sub >= s_ins:
                ptr[k] += 1
            elif s_del >= s_ins:
                pass
            else:
                ptr[k] += 2
        if pointer_log is not None:
            pointer_log.append(tuple(ptr))

    return out


def bmala_reconstruct(traces, n, alphabet_size=4, pointer_log=None):
    """One cluster's BMALA estimate by the scalar loop: the forward sweep's
    first n//2 symbols, then the reversed sweep's, each sweep over all n
    positions (one forward sweep for one trace or n = 1). `pointer_log`
    gets the forward sweep's pointers."""
    traces = [np.asarray(y) for y in traces]
    fwd = bmala_sweep(traces, n, alphabet_size, pointer_log)
    if n > 1 and len(traces) > 1:
        rev = bmala_sweep([y[::-1] for y in traces], n, alphabet_size, None)[::-1]
        return np.concatenate([fwd[:n // 2], rev[n // 2:]])
    return fwd
