import pytest

from cfaudit.cfg import (
    CFG,
    Block,
    Edge,
    build_cfg,
    enumerate_segment_paths,
    find_loops,
    segment_cfg,
    write_cfg_document,
)
from cfaudit.errors import MalformedCFG, ParseError, PathExplosion
from cfaudit.fixtures import static_demo_cfg


def linear_cfg(names, function="f", kind="fallthrough", extra_edges=()):
    blocks = {
        n: Block(n, 0x0400 + 0x10 * i, 0x0406 + 0x10 * i, function)
        for i, n in enumerate(names)
    }
    edges = [Edge(names[i], names[i + 1], kind) for i in range(len(names) - 1)]
    edges += [Edge(*e) for e in extra_edges]
    return CFG(((function, names[0]),), blocks, tuple(edges))


def chain_document(n=700):
    """One function of ``n`` blocks joined by jumps: one path, ``n`` deep."""
    lines = ["function main b0"]
    lines += [f"block b{i} {0x400 + 4 * i:04x} {0x402 + 4 * i:04x} main" for i in range(n)]
    lines += [f"edge b{i} b{i + 1} jump" for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def long_path_document(n=298):
    """``main``: one diamond, then an ``n``-block jump chain that calls
    ``g``, which holds one short diamond.  Each path through ``main`` is
    ``n + 2`` transfers, more than a spec may hold for ``n`` above 253."""
    names = ["a", "t", "f", "j"] + [f"c{i}" for i in range(n)]
    lines = ["function main a", "function g ga"]
    lines += [f"block {b} {0x400 + 4 * i:04x} {0x402 + 4 * i:04x} main" for i, b in enumerate(names)]
    lines += [f"block g{b} {0x4000 + 4 * i:04x} {0x4002 + 4 * i:04x} g" for i, b in enumerate("atfj")]
    for p in ("", "g"):
        lines += [f"edge {p}a {p}t cond_true", f"edge {p}a {p}f cond_false",
                  f"edge {p}t {p}j jump", f"edge {p}f {p}j jump"]
    lines += ["edge j c0 jump", f"edge c{n - 1} ga call"]
    lines += [f"edge c{i} c{i + 1} jump" for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def looped_diamonds_document(loop=13, exit=11):
    """``main``: a loop of ``loop`` stacked diamonds whose latch ``s<loop>``
    jumps back to ``s0`` or exits into ``exit`` more stacked diamonds.  The
    loop and the exit are two segments, with ``2**loop`` and ``2**exit``
    paths."""
    splits = [f"s{i}" for i in range(loop + 1)] + [f"x{i}" for i in range(exit + 1)]
    diamonds = [(a, b) for a, b in zip(splits, splits[1:]) if a != f"s{loop}"]
    names = splits + [f"{a}{arm}" for a, _ in diamonds for arm in "tf"]
    lines = ["function main s0"]
    lines += [f"block {b} {0x400 + 4 * i:04x} {0x402 + 4 * i:04x} main" for i, b in enumerate(names)]
    for a, b in diamonds:
        lines += [f"edge {a} {a}t cond_true", f"edge {a} {a}f cond_false",
                  f"edge {a}t {b} jump", f"edge {a}f {b} jump"]
    lines += [f"edge s{loop} s0 cond_true", f"edge s{loop} x0 cond_false"]
    return "\n".join(lines) + "\n"


def dead_diamonds_document(dead=14):
    """``main``: one diamond.  ``dead``, which nothing calls: ``dead``
    stacked diamonds, one segment of ``2**dead`` paths."""
    main = ["a", "t", "f", "j"]
    splits = [f"d{i}" for i in range(dead + 1)]
    arms = [f"{a}{arm}" for a in splits[:-1] for arm in "tf"]
    lines = ["function main a", "function dead d0"]
    lines += [f"block {b} {0x400 + 4 * i:04x} {0x402 + 4 * i:04x} main" for i, b in enumerate(main)]
    lines += [f"block {b} {0x1000 + 4 * i:04x} {0x1002 + 4 * i:04x} dead"
              for i, b in enumerate(splits + arms)]
    lines += ["edge a t cond_true", "edge a f cond_false", "edge t j jump", "edge f j jump"]
    for a, b in zip(splits, splits[1:]):
        lines += [f"edge {a} {a}t cond_true", f"edge {a} {a}f cond_false",
                  f"edge {a}t {b} jump", f"edge {a}f {b} jump"]
    return "\n".join(lines) + "\n"


# b and c jump to each other and each is entered from a, so neither
# dominates the other: no back edge cuts the cycle and it stays in a segment
IRREDUCIBLE_DOCUMENT = """\
function main a
block a 0400 0402 main
block b 0410 0412 main
block c 0420 0422 main
edge a b cond_true
edge a c cond_false
edge b c jump
edge c b jump
"""


def brute_force_dominators(cfg, function, entry):
    """u dominates v iff removing u disconnects v from entry."""
    nodes = [b.id for b in cfg.function_blocks(function)]
    succs = {n: [] for n in nodes}
    for e in cfg.edges:
        if e.src in succs and e.dest in succs and e.kind not in ("call", "return"):
            succs[e.src].append(e.dest)

    def reachable(excluding=None):
        if entry == excluding:
            return set()
        seen = {entry}
        stack = [entry]
        while stack:
            n = stack.pop()
            for s in succs[n]:
                if s != excluding and s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    base = reachable()
    doms = {v: {v} for v in base}
    for u in base:
        cut = reachable(excluding=u)
        for v in base:
            if v != u and v not in cut:
                doms[v].add(u)
    return doms


class TestDocument:
    def test_round_trip(self):
        cfg = static_demo_cfg()
        again = build_cfg(write_cfg_document(cfg))
        assert again.functions == cfg.functions
        assert again.blocks == dict(cfg.blocks)
        assert again.edges == cfg.edges

    def test_dangling_edge(self):
        doc = "function f a\nblock a 0400 0406 f\nedge a b jump\n"
        with pytest.raises(MalformedCFG):
            build_cfg(doc)

    def test_missing_entry(self):
        doc = "function f a\nblock b 0400 0406 f\n"
        with pytest.raises(MalformedCFG):
            build_cfg(doc)

    def test_no_functions(self):
        with pytest.raises(MalformedCFG):
            build_cfg("block a 0400 0406 f\n")

    def test_bad_edge_kind(self):
        doc = "function f a\nblock a 0400 0406 f\nedge a a sideways\n"
        with pytest.raises(ParseError):
            build_cfg(doc)

    def test_unknown_directive_line_number(self):
        with pytest.raises(ParseError) as err:
            build_cfg("function f a\nblock a 0400 0406 f\nwhat\n")
        assert err.value.line == 3


class TestLoops:
    def test_straight_line_has_no_loops(self):
        cfg = linear_cfg(["a", "b", "c"])
        info = find_loops(cfg)
        assert not info.loops and not info.back_edges
        assert all(not m for m in info.membership.values())

    def test_single_back_edge(self):
        cfg = linear_cfg(["a", "b"], extra_edges=[("b", "a", "jump")])
        info = find_loops(cfg)
        assert info.back_edges == {("b", "a")}
        assert info.loops == {"a": frozenset({"a", "b"})}
        expected = brute_force_dominators(cfg, "f", "a")
        assert expected["b"] == {"a", "b"}

    def test_nested_loops_carry_both_labels(self):
        # outer: a..d via d->a; inner: b..c via c->b
        cfg = linear_cfg(
            ["a", "b", "c", "d"],
            extra_edges=[("d", "a", "jump"), ("c", "b", "jump")],
        )
        info = find_loops(cfg)
        assert info.membership["b"] == {"a", "b"}
        assert info.membership["c"] == {"a", "b"}
        assert info.membership["a"] == {"a"}
        assert info.membership["d"] == {"a"}

    def test_dominators_match_brute_force_on_diamond(self):
        cfg = linear_cfg(
            ["a", "b", "d"],
            extra_edges=[("a", "c", "cond_false"), ("c", "d", "jump")],
        )
        cfg = CFG(
            cfg.functions,
            {**cfg.blocks, "c": Block("c", 0x0500, 0x0506, "f")},
            cfg.edges,
        )
        from cfaudit.cfg import _dominators, _intra_edges

        edges = _intra_edges(cfg, "f")
        preds = {}
        for e in edges:
            preds.setdefault(e.dest, []).append(e.src)
        got = _dominators(["a", "b", "c", "d"], "a", preds)
        expected = brute_force_dominators(cfg, "f", "a")
        assert {k: set(v) for k, v in got.items()} == expected

    def test_self_loop(self):
        cfg = linear_cfg(["a", "b"], extra_edges=[("b", "b", "jump")])
        info = find_loops(cfg)
        assert info.back_edges == {("b", "b")}
        assert info.loops["b"] == frozenset({"b"})


class TestSegments:
    def test_loop_free_single_function_single_segment(self):
        cfg = linear_cfg(["a", "b", "c"])
        segments = segment_cfg(cfg)
        assert len(segments) == 1
        assert segments[0].blocks == {"a", "b", "c"}

    def test_one_loop_at_least_three_segments(self):
        # pre-loop, loop body, post-loop
        cfg = linear_cfg(
            ["p", "h", "b", "x"],
            extra_edges=[("b", "h", "jump")],
        )
        segments = segment_cfg(cfg)
        assert len(segments) >= 3
        loop_seg = next(s for s in segments if "h" in s.blocks)
        assert loop_seg.blocks == {"h", "b"}

    def test_segments_are_back_edge_free_dags(self):
        for cfg in (static_demo_cfg(), linear_cfg(["a", "b"], extra_edges=[("b", "a", "jump")])):
            info = find_loops(cfg)
            for seg in segment_cfg(cfg, info):
                for e in seg.edges:
                    assert (e.src, e.dest) not in info.back_edges
                    assert e.kind not in ("call", "return")
                # internal edge set is acyclic: Kahn's peel
                nodes = set(seg.blocks)
                indeg = {n: 0 for n in nodes}
                for e in seg.edges:
                    indeg[e.dest] += 1
                ready = [n for n in nodes if indeg[n] == 0]
                seen = 0
                while ready:
                    n = ready.pop()
                    seen += 1
                    for e in seg.edges:
                        if e.src == n:
                            indeg[e.dest] -= 1
                            if indeg[e.dest] == 0:
                                ready.append(e.dest)
                assert seen == len(nodes)

    def test_blocks_in_one_segment_share_loop_membership(self):
        cfg = static_demo_cfg()
        info = find_loops(cfg)
        for seg in segment_cfg(cfg, info):
            memberships = {info.membership[b] for b in seg.blocks}
            assert len(memberships) == 1


class TestPaths:
    def test_diamond_two_paths(self):
        cfg = linear_cfg(
            ["a", "b", "d"],
            extra_edges=[("a", "c", "cond_false"), ("c", "d", "jump")],
        )
        cfg = CFG(
            cfg.functions,
            {**cfg.blocks, "c": Block("c", 0x0500, 0x0506, "f")},
            cfg.edges,
        )
        segments = segment_cfg(cfg)
        assert len(segments) == 1
        paths = enumerate_segment_paths(segments[0], cfg)
        assert len(paths) == 2
        assert {p.blocks for p in paths} == {("a", "b", "d"), ("a", "c", "d")}
        assert all(len(p.transfers) == 2 for p in paths)

    def test_transfer_mapping_uses_end_start(self):
        cfg = linear_cfg(["a", "b"])
        seg = segment_cfg(cfg)[0]
        (path,) = enumerate_segment_paths(seg, cfg)
        assert path.transfers[0].src == cfg.blocks["a"].end
        assert path.transfers[0].dest == cfg.blocks["b"].start

    def test_path_explosion_cap(self):
        # 12 stacked diamonds -> 2^12 paths
        names = ["n0"]
        blocks = {"n0": Block("n0", 0x0400, 0x0402, "f")}
        edges = []
        prev = "n0"
        addr = 0x0410
        for i in range(12):
            a, b, j = f"a{i}", f"b{i}", f"j{i}"
            for n in (a, b, j):
                blocks[n] = Block(n, addr, addr + 2, "f")
                addr += 0x10
            edges += [
                Edge(prev, a, "cond_true"),
                Edge(prev, b, "cond_false"),
                Edge(a, j, "jump"),
                Edge(b, j, "jump"),
            ]
            prev = j
        cfg = CFG((("f", "n0"),), blocks, tuple(edges))
        (seg,) = segment_cfg(cfg)
        with pytest.raises(PathExplosion):
            enumerate_segment_paths(seg, cfg, max_paths=1000)
        assert len(enumerate_segment_paths(seg, cfg, max_paths=5000)) == 4096

    def test_deep_chain_is_one_path(self):
        cfg = build_cfg(chain_document())
        (seg,) = segment_cfg(cfg)
        (path,) = enumerate_segment_paths(seg, cfg)
        assert path.blocks == tuple(f"b{i}" for i in range(700))
        assert len(path.transfers) == 699

    def test_cycle_in_segment_is_malformed(self):
        cfg = build_cfg(IRREDUCIBLE_DOCUMENT)
        (seg,) = segment_cfg(cfg)
        with pytest.raises(MalformedCFG, match=f"segment {seg.id} "):
            enumerate_segment_paths(seg, cfg)

    def test_unreachable_cycle_is_malformed(self):
        # no source at all: the cycle is never entered from the segment
        cfg = linear_cfg(["a", "b"], extra_edges=[("b", "a", "jump")])
        cfg = CFG((("f", "x"),), {**cfg.blocks, "x": Block("x", 0x0500, 0x0506, "f")},
                  cfg.edges)
        seg = next(s for s in segment_cfg(cfg) if "a" in s.blocks)
        with pytest.raises(MalformedCFG):
            enumerate_segment_paths(seg, cfg)
