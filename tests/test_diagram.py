"""Tests for diagram parsing, family generators, moves, and strand extraction."""

import hashlib
import itertools
import random
import re
import sys

import pytest

from biqknot.diagram import (
    Crossing,
    DiagramError,
    ParseError,
    SemiarcDiagram,
    any_int_digits,
    apply_r1,
    apply_r2,
    chain,
    connected_sum,
    parse_pd,
    pretzel,
    serialize_pd,
    strands,
    torus_2n,
    unknot,
)


def test_parse_single_kink():
    d = parse_pd("X+ 0 1 1 0\n")
    assert d.semiarc_count == 2
    assert len(d.crossings) == 1
    assert d.crossings[0] == Crossing(1, 0, 1, 1, 0)
    assert d.component_count() == 1


def test_parse_free_loop_only():
    d = parse_pd("L 1\n")
    assert d.semiarc_count == 0
    assert d.crossings == ()
    assert d.free_loops == 1


def test_parse_dangling_semiarc():
    # 1 is consumed but never produced, 2 produced but never consumed
    with pytest.raises(ParseError, match="semiarc 1 has no source") as e:
        parse_pd("X+ 0 1 2 0\n")
    assert "semiarc 2 has no destination" in str(e.value)
    assert e.value.line == 1


def test_parse_duplicate_consumer_reports_line():
    text = "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nX- 0 1 6 7\n"
    with pytest.raises(ParseError) as e:
        parse_pd(text)
    assert e.value.line == 4


def test_parse_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_pd("X+ 0 1 1 0\nX+ 3 4\n")
    with pytest.raises(ParseError, match="unknown record"):
        parse_pd("Y+ 0 1 1 0\n")


def test_round_trip_families():
    for d in (torus_2n(4), pretzel([3, 3, 3]), chain(5), unknot(), unknot(2)):
        assert parse_pd(serialize_pd(d)) == d
    text = "X+ 0 1 3 2\nX+ 2 3 1 0\n"
    assert serialize_pd(parse_pd(text)) == text


def test_parse_renumbers_sparse_ids():
    sparse = "X+ 10 20 30 40\nX+ 30 40 10 20\n"
    d = parse_pd(sparse)
    assert d.semiarc_count == 4
    assert serialize_pd(d) == "X+ 0 1 2 3\nX+ 2 3 0 1\n"


def test_virtual_crossings_erased():
    # T(2,4) with a virtual crossing detouring two semiarcs: merging the
    # detour ids back reproduces the classical diagram exactly
    text = ("X+ 0 1 3 2\n"
            "X+ 2 3 5 4\n"
            "X+ 4 5 8 9\n"   # outputs detour through the virtual crossing
            "V 8 9 7 6\n"    # 8 continues as 7, 9 continues as 6
            "X+ 6 7 1 0\n")
    d = parse_pd(text)
    assert d.semiarc_count == 8
    assert len(d.crossings) == 4
    assert d == torus_2n(4)


def test_purely_virtual_component_becomes_free_loop():
    d = parse_pd("X+ 0 1 1 0\nV 2 3 3 2\n")
    assert d.free_loops == 1
    assert d.semiarc_count == 2


def test_validation_rejects_double_head():
    with pytest.raises(DiagramError):
        SemiarcDiagram(2, (Crossing(1, 0, 0, 1, 1),))


@pytest.mark.parametrize("count, crossings, free_loops, message", [
    (2, ((0, 0, 1, 1, 0),), 0, "crossing sign must be +1 or -1, got 0"),
    (2, ((1, 0, 1, 1, 0), (2, 0, 1, 1, 0)), 0, "crossing sign must be +1 or -1, got 2"),
    (2, ((1, 0, 2, 1, 0),), 0, "semiarc 2 out of range 0..1"),
    (2, ((1, -1, 1, 1, 0),), 0, "semiarc -1 out of range 0..1"),
    (3, ((1, 0, 1, 1, 0),), 0, "semiarc 2 has no head (must be consumed exactly once)"),
    (2, ((1, 0, 0, 1, 1),), 0, "semiarc 0 has multiple heads (must be consumed exactly once)"),
    (2, ((1, 0, 1, 1, 1),), 0, "semiarc 0 has no source (must be produced exactly once)"),
    (2, ((1, 0, 1, 0, 0),), 0, "semiarc 0 has multiple sources (must be produced exactly once)"),
    (0, (), -1, "free loop count cannot be negative"),
    (-1, (), 0, "semiarc count cannot be negative"),
    (-1, ((1, 0, 0, 0, 0),), 0, "semiarc count cannot be negative"),
    # a sign is the int 1 or -1 itself: equal floats, bools and text are refused
    (2, ((1.0, 0, 1, 1, 0),), 0, "crossing sign must be +1 or -1, got 1.0"),
    (2, ((1, 0, 1, 1, 0), (True, 0, 1, 1, 0)), 0, "crossing sign must be +1 or -1, got True"),
    (2, ((-1.0, 0, 1, 1, 0),), 0, "crossing sign must be +1 or -1, got -1.0"),
    (2, (("1", 0, 1, 1, 0),), 0, "crossing sign must be +1 or -1, got '1'"),
    (2, (([1], 0, 1, 1, 0),), 0, "crossing sign must be +1 or -1, got [1]"),
])
def test_validation_messages(count, crossings, free_loops, message):
    with pytest.raises(DiagramError) as e:
        SemiarcDiagram(count, tuple(Crossing(*c) for c in crossings), free_loops)
    assert str(e.value) == message


def test_crossing_is_a_named_tuple():
    c = Crossing(1, 0, 1, 1, 0)
    assert repr(c) == "Crossing(sign=1, u_in=0, o_in=1, u_out=1, o_out=0)"
    assert c == (1, 0, 1, 1, 0) and hash(c) == hash((1, 0, 1, 1, 0))


def test_parse_l_count_must_be_decimal():
    # '²' is a digit to str.isdigit but not a decimal int() can read
    for text in ("L \u00b2\n", "X+ 0 1 1 0\nL 1\u00b2\n"):
        with pytest.raises(ParseError, match="L line takes one nonnegative count") as e:
            parse_pd(text)
        assert e.value.line == text.count("\n")


def test_torus_structure():
    t1 = torus_2n(1)
    assert serialize_pd(t1) == "X+ 0 1 1 0\n"
    t3 = torus_2n(3)
    assert t3.semiarc_count == 6
    assert t3.component_count() == 1
    assert torus_2n(4).component_count() == 2
    assert torus_2n(5).component_count() == 1
    for i, c in enumerate(torus_2n(4).crossings):
        assert (c.u_in, c.o_in) == (2 * i, 2 * i + 1)


def test_unknot_kinks():
    assert unknot().component_count() == 1
    k2 = unknot(2)
    assert len(k2.crossings) == 2
    assert k2.component_count() == 1


def test_unknot_matches_r1_fold():
    # the chain of kinks is torus_2n(1) with a positive kink added on semiarc 0
    # k - 1 times, built in one pass
    folded = torus_2n(1)
    for k in range(1, 61):
        assert unknot(k) == folded
        folded = apply_r1(folded, 0, +1)
    assert unknot(3).crossings == (Crossing(1, 3, 1, 1, 0), Crossing(1, 5, 2, 2, 3),
                                   Crossing(1, 0, 4, 4, 5))
    with pytest.raises(ValueError):
        unknot(-1)


def test_pretzel_one_band_single_twist():
    d = pretzel([1])
    assert len(d.crossings) == 1
    assert d.semiarc_count == 2
    assert d.component_count() == 1


def test_pretzel_band_signs_uniform():
    # all crossings of a positive band share a sign; a negative band flips it
    d = pretzel([3])
    signs = {c.sign for c in d.crossings}
    assert len(signs) == 1
    d2 = pretzel([-3])
    assert {c.sign for c in d2.crossings} == {-signs.pop()}


def test_pretzel_p929():
    d = pretzel([9, 2, 9])
    assert len(d.crossings) == 20
    assert d.semiarc_count == 40
    assert d.component_count() == 1
    dec = strands(d)
    assert len(dec.strands) == len(d.crossings)  # alternating diagram


def test_pretzel_p333():
    d = pretzel([3, 3, 3])
    assert len(d.crossings) == 9
    assert d.component_count() == 1


def test_pretzel_twist_knots_are_knots():
    for m in (2, 3, 4, 5, 6):
        d = pretzel([m, 1, 1])
        assert len(d.crossings) == m + 2
        assert d.component_count() == 1


def test_pretzel_numbering_is_frozen():
    # stored semiarc labels (benchmark slots, golden CLI bytes) depend on the
    # numbering, not just the isotopy class: every vector with 1-4 bands and
    # twists in -3..3, zero and all-zero bands included, hashed as one stream
    h = hashlib.sha256()
    for k in range(1, 5):
        for tw in itertools.product(range(-3, 4), repeat=k):
            h.update(f"{list(tw)}\n{serialize_pd(pretzel(list(tw)))}".encode())
    assert h.hexdigest() == "bad47bf587cf9ba1b8a309c78483db0e889d5f32e68b330b0c1e2f0ddee50239"


def test_pretzel_zero_band():
    # zero-twist bands pass straight through: P(1,0,1) closes into a
    # single component carrying both crossings (hand-traced)
    d = pretzel([1, 0, 1])
    assert len(d.crossings) == 2
    assert d.component_count() == 1
    d = pretzel([3, 0, 3])
    assert len(d.crossings) == 6


def test_pretzel_all_zero_is_free_loops():
    # an all-zero necklace is one circle per gap between bands
    d = pretzel([0])
    assert d.crossings == ()
    assert d.free_loops == 1
    assert pretzel([0, 0, 0]).free_loops == 3


def test_chain_structure():
    d = chain(3)
    assert len(d.crossings) == 6
    assert d.semiarc_count == 12
    assert d.component_count() == 3
    assert chain(5).component_count() == 5
    assert len(strands(chain(5)).strands) == 10  # two strands per ring


def test_chain_rejects_even_and_small():
    with pytest.raises(ValueError):
        chain(4)
    with pytest.raises(ValueError):
        chain(1)


def test_connected_sum_counts_additive():
    t = torus_2n(3)
    s, relabel = connected_sum(t, 0, t, 0)
    assert len(s.crossings) == 2 * len(t.crossings)
    assert s.semiarc_count == 2 * t.semiarc_count
    assert s.component_count() == 1
    assert relabel == {i: i + 6 for i in range(6)}


def test_connected_sum_bad_ids():
    t = torus_2n(3)
    with pytest.raises(DiagramError):
        connected_sum(t, 6, t, 0)


def test_apply_r1_shape():
    t = torus_2n(3)
    for s in range(t.semiarc_count):
        for sign in (1, -1):
            moved = apply_r1(t, s, sign)
            assert len(moved.crossings) == len(t.crossings) + 1
            assert moved.semiarc_count == t.semiarc_count + 2
            assert moved.component_count() == t.component_count()


def test_apply_r2_shape():
    t = torus_2n(4)
    for variant in ("parallel", "antiparallel"):
        moved = apply_r2(t, 0, 5, variant)
        assert len(moved.crossings) == len(t.crossings) + 2
        assert moved.semiarc_count == t.semiarc_count + 4
        assert moved.component_count() == t.component_count()
        signs = [c.sign for c in moved.crossings[-2:]]
        assert sorted(signs) == [-1, 1]


def test_apply_r2_rejects_same_semiarc():
    with pytest.raises(DiagramError):
        apply_r2(torus_2n(3), 2, 2)


def test_strands_partition():
    for d in (torus_2n(3), torus_2n(4), pretzel([3, 3, 3]), chain(3), unknot(1)):
        dec = strands(d)
        seen = sorted(s for path in dec.strands for s in path)
        assert seen == list(range(d.semiarc_count))
        if d.crossings:
            assert len(dec.strands) <= len(d.crossings)
        for c, (uin_s, uout_s, over_s) in zip(d.crossings, dec.crossing_incidence):
            assert dec.strand_of[c.o_in] == dec.strand_of[c.o_out] == over_s
            assert dec.strand_of[c.u_in] == uin_s
            assert dec.strand_of[c.u_out] == uout_s


def test_strands_counts():
    assert len(strands(torus_2n(3)).strands) == 3
    assert len(strands(unknot(1)).strands) == 1


def test_strand_order_follows_flow():
    dec = strands(torus_2n(3))
    for path in dec.strands:
        assert len(path) == 2
    # each strand's two semiarcs are linked by an overpass
    t = torus_2n(3)
    over_next = {c.o_in: c.o_out for c in t.crossings}
    for path in dec.strands:
        assert over_next[path[0]] == path[1]


# -- the line-by-line parser as the oracle of the bulk one -----------------------


def reference_parse_pd(text):
    """The line-by-line parser that parse_pd's bulk reading replaced, kept as the
    oracle for its results and first errors. Integers are an optional '-' and
    ASCII digits, L counts nonnegative ones."""
    crossings = []
    virtuals = []
    free_loops = 0
    head_line = {}
    tail_line = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "L":
            if len(parts) != 2 or not re.fullmatch("-?[0-9]+", parts[1]) or int(parts[1]) < 0:
                raise ParseError("L line takes one nonnegative count", lineno)
            free_loops += int(parts[1])
            continue
        if tag not in ("X+", "X-", "V"):
            raise ParseError(f"unknown record {tag!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"{tag} line takes four semiarc ids", lineno)
        if not all(re.fullmatch("-?[0-9]+", p) for p in parts[1:]):
            raise ParseError("semiarc ids must be integers", lineno)
        ids = [int(p) for p in parts[1:]]
        if any(i < 0 for i in ids):
            raise ParseError("semiarc ids must be nonnegative", lineno)
        a_in, b_in, a_out, b_out = ids
        for s in (a_in, b_in):
            if s in head_line:
                raise ParseError(f"semiarc {s} consumed twice (also line {head_line[s]})", lineno)
            head_line[s] = lineno
        for s in (a_out, b_out):
            if s in tail_line:
                raise ParseError(f"semiarc {s} produced twice (also line {tail_line[s]})", lineno)
            tail_line[s] = lineno
        if tag == "V":
            virtuals.append((a_in, b_in, a_out, b_out))
        else:
            crossings.append((1 if tag == "X+" else -1, a_in, b_in, a_out, b_out))

    dangling = []
    for s in sorted(set(head_line) - set(tail_line)):
        dangling.append((s, f"semiarc {s} has no source", head_line[s]))
    for s in sorted(set(tail_line) - set(head_line)):
        dangling.append((s, f"semiarc {s} has no destination", tail_line[s]))
    if dangling:
        dangling.sort()
        raise ParseError("; ".join(msg for _, msg, _ in dangling), dangling[0][2])

    if virtuals:
        # follow each id downstream through the V records to the id a real crossing
        # consumes, and number those ends in increasing order; an id whose walk comes
        # back to it lies on a purely virtual loop, named by its least id
        through = {}
        for s_in, t_in, s_out, t_out in virtuals:
            through[s_in], through[t_in] = s_out, t_out
        end, loops = {}, set()
        for s in head_line:
            walk = [s]
            while walk[-1] in through and through[walk[-1]] != s:
                walk.append(through[walk[-1]])
            if walk[-1] in through:
                loops.add(min(walk))
            else:
                end[s] = walk[-1]
        number = {t: i for i, t in enumerate(sorted(set(end.values())))}
        relabel = {s: number[t] for s, t in end.items()}
        semiarcs = len(number)
        free_loops += len(loops)
    else:
        relabel = {s: i for i, s in enumerate(sorted(head_line))}
        semiarcs = len(relabel)
    out = tuple(Crossing(sign, relabel[a], relabel[b], relabel[c], relabel[d])
                for sign, a, b, c, d in crossings)
    return SemiarcDiagram(semiarcs, out, free_loops)


def outcome(parse, text):
    """What parse makes of text: the diagram, or the (type, message, line) it raises."""
    try:
        return parse(text)
    except Exception as e:
        return (type(e), str(e), getattr(e, "line", None))


def oracle_diagrams():
    bases = [torus_2n(n) for n in range(1, 7)] + [chain(3), chain(5)]
    bases += [pretzel(t) for t in ([3, 3, 3], [2, -3, 5], [1, 0, 1], [0, 0], [-2, 4])]
    bases += [unknot(k) for k in range(4)]
    moved = [apply_r1(torus_2n(3), 2, -1), apply_r1(chain(3), 5, 1),
             apply_r2(torus_2n(4), 0, 5), apply_r2(pretzel([3, 3, 3]), 1, 7, "antiparallel"),
             apply_r2(apply_r1(torus_2n(2), 0, 1), 3, 4)]
    return bases + moved


def varied_text(d, rng):
    """Wire text of d with shuffled lines, sparse labels, comments, blank and L lines
    and, now and then, virtual detours and purely virtual loops."""
    labels = rng.sample(range(d.semiarc_count + 10 ** rng.randint(1, 6)), d.semiarc_count + 4)
    fresh = labels[d.semiarc_count:]
    rows = [[f"X{'+' if c.sign > 0 else '-'}", *(labels[s] for s in c[1:])] for c in d.crossings]
    lines = [" ".join(map(str, r)) for r in rows]
    if rows and rng.random() < 0.6:  # detour two outputs through a virtual crossing
        (i, p), (j, q) = rng.sample([(i, p) for i in range(len(rows)) for p in (3, 4)], 2)
        s, t = rows[i][p], rows[j][q]
        rows[i][p], rows[j][q] = fresh[0], fresh[1]
        lines = [" ".join(map(str, r)) for r in rows] + [f"V {fresh[0]} {fresh[1]} {s} {t}"]
    if rng.random() < 0.3:
        lines.append(f"V {fresh[2]} {fresh[3]} {fresh[3]} {fresh[2]}")
    lines += [f"L {rng.randint(0, 3)}" for _ in range(d.free_loops + rng.randint(0, 1))]
    lines += ["", "   ", "# a comment", "\t# indented comment"][:rng.randint(0, 4)]
    rng.shuffle(lines)
    lines = [line + rng.choice(("", "  ", " # trailing", "#x")) for line in lines]
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_parse_matches_line_parser_on_valid_texts():
    rng = random.Random(17)
    texts = [serialize_pd(d) for d in oracle_diagrams()]
    texts += [varied_text(d, rng) for d in oracle_diagrams() for _ in range(12)]
    texts += ["", "\n\n", "# only a comment\n", "L 0\n", "L 3\nL 2\n", "X+ 00 01 10 00\nX- 10 02 2 01\n",
              "L -0\n"]
    for text in texts:
        expected = outcome(reference_parse_pd, text)
        assert isinstance(expected, SemiarcDiagram), (text, expected)
        assert outcome(parse_pd, text) == expected, text


def random_virtual_system(rng):
    """Wire text of up to 4 real and 6 virtual crossings whose inputs and outputs are
    random permutations of the same sparse ids: chains of V records between real
    crossings, and purely virtual loops of any length."""
    n_real, n_virtual = rng.randint(0, 4), rng.randint(1, 6)
    ids = rng.sample(range(100), 2 * (n_real + n_virtual))
    outs = rng.sample(ids, len(ids))
    lines = [f"{'V' if k >= n_real else rng.choice(('X+', 'X-'))} "
             f"{ids[2 * k]} {ids[2 * k + 1]} {outs[2 * k]} {outs[2 * k + 1]}"
             for k in range(n_real + n_virtual)]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_parse_erases_virtual_chains_as_the_line_parser():
    rng = random.Random(19)
    loops = 0
    for _ in range(3000):
        text = random_virtual_system(rng)
        expected = reference_parse_pd(text)
        assert parse_pd(text) == expected, text
        loops += expected.free_loops
    assert loops > 1000


def corruptions(text):
    """Every single-record corruption of text: a bad tag, a wrong arity, a non-integer,
    negative, duplicated or dangling id, a bad L count, a repeated record, a moved
    line break; and each id made negative, non-integer or 5000 digits long wherever
    it occurs."""
    lines = text.splitlines()
    records = [i for i, line in enumerate(lines) if line.split("#")[0].split()]
    heads = [t for i in records if lines[i].split()[0] != "L" for t in lines[i].split()[1:3]]
    tails = [t for i in records if lines[i].split()[0] != "L" for t in lines[i].split()[3:5]]
    for i in records:
        parts = lines[i].split("#")[0].split()
        if parts[0] == "L":
            variants = [["L"], ["L", "1", "2"], ["L", "-1"], ["L", "x"], ["L", "\u00b2"], ["L", "1.0"],
                        ["L", "\u0661"], ["L", "+1"], ["L", "1_0"]]
        else:
            variants = [[tag, *parts[1:]] for tag in ("Y+", "X", "x+", "L", "5")]
            variants += [parts[:-1], parts + ["0"], parts[:1]]
            for k in range(1, 5):
                for bad in ("a", "1.5", "\u00b2", "-1", "-0", "999", "\u0663", "+1", "1_0"):
                    variants.append(parts[:k] + [bad] + parts[k + 1:])
            for k in (1, 2):
                variants += [parts[:k] + [h] + parts[k + 1:] for h in heads]
            for k in (3, 4):
                variants += [parts[:k] + [t] + parts[k + 1:] for t in tails]
        for v in variants:
            yield "\n".join(lines[:i] + [" ".join(v)] + lines[i + 1:]) + "\n"
        yield "\n".join(lines[:i + 1] + lines[i:]) + "\n"  # the record repeated
        # the line break after the record moved one token later or earlier
        after = [j for j in records if j > i]
        if after:
            j = after[0]
            rest = lines[j].split()
            moved = [" ".join(parts + rest[:1]), " ".join(rest[1:])]
            yield "\n".join(lines[:i] + moved + lines[i + 1:j] + lines[j + 1:]) + "\n"
            moved = [" ".join(parts[:-1]), " ".join(parts[-1:] + rest)]
            yield "\n".join(lines[:i] + moved + lines[i + 1:j] + lines[j + 1:]) + "\n"
    # one id replaced wherever it occurs, which keeps every id paired: by a bad one,
    # or by a valid one of 5000 digits
    for s in sorted(set(heads)):
        for bad in ("-1", "-5", "x", "9" * 5000):
            yield "\n".join(" ".join(bad if t == s else t for t in line.split()) for line in lines) + "\n"


def test_parse_matches_line_parser_on_corrupted_texts():
    texts = ["X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\n",
             "# T(2,4) with a virtual detour\nX+ 0 1 3 2\nX+ 2 3 5 4\n\nX+ 4 5 8 9  # out\n"
             "V 8 9 7 6\nX+ 6 7 1 0\nL 2\n",
             serialize_pd(apply_r2(chain(3), 0, 7, "antiparallel")) + "L 1\n"]
    raised = 0
    for base in texts:
        assert isinstance(parse_pd(base), SemiarcDiagram)
        for text in corruptions(base):
            with any_int_digits():  # ids of any length are valid, as in parse_pd
                expected = outcome(reference_parse_pd, text)
            assert outcome(parse_pd, text) == expected, text
            raised += not isinstance(expected, SemiarcDiagram)
    assert raised > 400


@pytest.mark.parametrize("text, semiarc", [("X+ 0 1 1 0\nV 5 5 6 6\n", 5), ("X+ 0 1 1 0\nV 7 7 7 7\n", 7)])
def test_parse_checks_virtual_records_before_erasing_them(text, semiarc):
    # erasing the V record would leave a valid kink plus a free loop, so only a check
    # of the raw records rejects these texts
    with pytest.raises(ParseError) as e:
        parse_pd(text)
    assert e.value.line == 2
    assert str(e.value) == f"line 2: semiarc {semiarc} consumed twice (also line 2)"


@pytest.mark.parametrize("build, message", [
    (lambda: torus_2n(0), "torus_2n needs n >= 1, got 0"),
    (lambda: pretzel([]), "pretzel needs at least one band"),
    (lambda: connected_sum(torus_2n(3), 0, torus_2n(3), 9), "semiarc 9 not in second diagram"),
    (lambda: apply_r1(torus_2n(3), 6, 1), "semiarc 6 not in diagram"),
    (lambda: apply_r1(torus_2n(3), 0, 0), "chirality must be +1 or -1"),
    (lambda: apply_r2(torus_2n(3), 0, 6), "semiarc not in diagram"),
    (lambda: apply_r2(torus_2n(3), -1, 2), "semiarc not in diagram"),
    (lambda: apply_r2(torus_2n(3), 0, 2, "twisted"), "unknown r2 variant 'twisted'"),
    # not an int: True would build as 1 and 2.0 escape as TypeError
    (lambda: torus_2n(True), "n must be an int, got True"),
    (lambda: torus_2n(2.0), "n must be an int, got 2.0"),
    (lambda: unknot(True), "kinks must be an int, got True"),
    (lambda: unknot(1.5), "kinks must be an int, got 1.5"),
    (lambda: chain(3.0), "k must be an int, got 3.0"),
    (lambda: chain(True), "k must be an int, got True"),
    (lambda: pretzel([True, 2]), "twists[0] must be an int, got True"),
    (lambda: pretzel([3, 1.5]), "twists[1] must be an int, got 1.5"),
    (lambda: apply_r1(torus_2n(3), True, 1), "semiarc must be an int, got True"),
    (lambda: apply_r1(torus_2n(3), 0, True), "chirality must be an int, got True"),
    (lambda: apply_r1(torus_2n(3), 0, -1.0), "chirality must be an int, got -1.0"),
    (lambda: apply_r2(torus_2n(3), 0.0, 2), "semiarc_a must be an int, got 0.0"),
    (lambda: apply_r2(torus_2n(3), 0, True), "semiarc_b must be an int, got True"),
    (lambda: connected_sum(torus_2n(3), False, torus_2n(3), 0), "s1 must be an int, got False"),
    (lambda: connected_sum(torus_2n(3), 0, torus_2n(3), 1.0), "s2 must be an int, got 1.0"),
])
def test_generator_and_surgery_errors(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


BIG = "1" + "0" * 5000  # 5001 digits, past the interpreter's default limit of 4300
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no digit limit")


@needs_digit_limit
def test_parse_ids_over_4300_digits_in_process():
    limit = sys.get_int_max_str_digits()
    d = parse_pd(f"X+ {BIG} {BIG[:-1]}1 {BIG[:-1]}1 {BIG}\n")
    assert (d.semiarc_count, d.crossings) == (2, (Crossing(1, 0, 1, 1, 0),))
    assert sys.get_int_max_str_digits() == limit
    # a bad line names the id in full, and the limit comes back on the raise too
    with pytest.raises(ParseError) as e:
        parse_pd(f"X+ {BIG} {BIG} 0 1\n")
    assert str(e.value) == f"line 1: semiarc {BIG} consumed twice (also line 1)"
    assert sys.get_int_max_str_digits() == limit


@needs_digit_limit
def test_parse_loop_count_over_4300_digits_in_process():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # a caller's own limit is the one restored
    try:
        d = parse_pd(f"X+ 0 1 1 0\nL {BIG}\n")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert d.free_loops == 10**5000 and d.semiarc_count == 2
