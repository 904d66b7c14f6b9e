"""Seeded fuzz of the CLI's exit-code contract, run in process through `cli.main`.

Argument lists are drawn from a grammar over every subcommand and action,
with malformed numbers, specs, wire texts, biquandle tables and quiver
dumps mixed in. Every one must exit 0, 1 or 2 with no exception escaping
`main`, and a nonzero exit may leave on stderr only one `usage error:` or
`error:` line, or argparse's usage text. An argv whose file holds a
number spelled as no integer must not exit 0. A handler that lost the import
of a module it runs would raise `NameError` here. Sizes stay small, so no
case allocates much or runs long.
"""

import random

import pytest

from biqknot.cli import main

WIRE = "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\n"  # T(2,3)
TABLE = "3\n1 1 1\n2 2 2\n3 3 3\n\n1 3 2\n3 2 1\n2 1 3\n"  # R_3
DUMP = ('{"edges": [[0, 0, 0], [1, 2, 0], [2, 1, 0]], "endos": [[1, 3, 2]], '
        '"vertices": [[1, 1], [1, 2], [2, 1]]}')
# not integers, or integers that no construction accepts
BAD_NUMBERS = ["x", "", "-1", "0", "1.5", "3,", "0x3", "²", "1e2", " ", "--", "\u0663", "1_0",
               " 3", "3 ", "+3"]
# the BAD_NUMBERS that stay one non-integer token in a file; the whitespace ones split
# back into integers there
NOT_INTEGERS = ["x", "1.5", "3,", "0x3", "\u00b2", "1e2", "--", "\u0663", "1_0", "+3"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
KNOTS = ["3_1", "4_1", "6_1", "9_24", "nope", ""]
ITEMS = ["04-chain-counts", "08-determinant-battery", "nope"]


class Grammar:
    def __init__(self, rng, tmp_path):
        self.rng = rng
        self.tmp_path = tmp_path
        self.files = 0
        self.non_integer = False  # whether a file of the last argv spells a number as no integer

    def pick(self, *options):
        return self.rng.choice(options)

    def number(self, lo=1, hi=6):
        if self.rng.random() < 0.08:
            return self.pick(*BAD_NUMBERS)
        return str(self.rng.randint(lo, hi))

    def numbers(self, count, lo=1, hi=6):
        return [self.number(lo, hi) for _ in range(count)]

    def file(self, text):
        """A file holding text, often with a line or token mangled; now and then a missing path."""
        self.files += 1
        path = self.tmp_path / f"f{self.files}"
        if self.rng.random() < 0.05:
            return str(path)  # never written
        roll = self.rng.random()
        if roll < 0.25:
            tokens = text.split(" ")
            i = self.rng.randrange(len(tokens))
            if tokens[i].isdecimal() and self.rng.random() < 0.3:
                # the same number spelled as int() reads it, so only the integer rule refuses it
                tokens[i] = self.pick("+" + tokens[i], tokens[i].translate(ARABIC_INDIC))
                self.non_integer = True
            else:
                tokens[i] = self.pick(*BAD_NUMBERS, "9", "[", "}", "L", "V")
                self.non_integer |= tokens[i] in NOT_INTEGERS
            text = " ".join(tokens)
        elif roll < 0.35:
            lines = text.splitlines()
            del lines[self.rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif roll < 0.45:
            text += self.pick("L 1", "L x", "V 0 1 2 3", "X? 1 2 3 4", "X+ 7 8 9", "# note", "")
        path.write_text(text)
        return str(path)

    def diagram_spec(self):
        kind = self.pick("torus2", "pretzel", "chain", "knot", "file", "file", "junk")
        if kind == "torus2":
            return f"torus2:{self.number(0, 8)}"
        if kind == "pretzel":
            return "pretzel:" + ",".join(self.numbers(self.rng.randint(1, 4), -4, 4))
        if kind == "chain":
            return f"chain:{self.number(0, 4)}"
        if kind == "knot":
            return f"knot:{self.pick(*KNOTS)}"
        if kind == "file":
            return self.file(WIRE)
        return self.pick("torus2", "pretzel:", "foo:3", ":", "knot", "-")

    def algebra_spec(self):
        kind = self.pick("dihedral", "dihedral", "linear", "file", "file", "junk")
        if kind == "dihedral":
            return f"dihedral:{self.number(0, 7)}"
        if kind == "linear":
            return "linear:" + ",".join(self.numbers(self.pick(5, 5, 5, 4), 0, 6))
        if kind == "file":
            return self.file(TABLE)
        return self.pick("dihedral", "linear:4,1", "z:4", "")

    def argv(self):
        self.non_integer = False
        command = self.pick("algebra", "diagram", "color", "quiver", "bridge", "enhance",
                            "knots", "repro", "junk")
        argv = getattr(self, f"cmd_{command}")()
        if self.rng.random() < 0.2:
            argv = ["--format", self.pick("json", "json", "xml"), *argv]
        elif self.rng.random() < 0.1:
            argv.append("--format=json")
        if self.rng.random() < 0.05 and argv:
            del argv[self.rng.randrange(len(argv))]
        return argv

    def cmd_junk(self):
        return self.pick([], ["nope"], ["color"], ["--bogus", "knots", "list"],
                         ["knots", "list", "-x"])

    def cmd_algebra(self):
        action = self.pick("validate", "dihedral", "linear", "endos")
        if action == "validate":
            return ["algebra", action, self.file(TABLE)]
        if action == "dihedral":
            return ["algebra", action, self.number(0, 7)]
        if action == "linear":
            return ["algebra", action, *self.numbers(self.pick(5, 5, 4), 0, 6)]
        return ["algebra", action, self.algebra_spec()]

    def cmd_diagram(self):
        action = self.pick("gen", "validate", "sum", "strands")
        if action == "gen":
            return ["diagram", action, self.pick("torus2", "pretzel", "chain", "foo"),
                    ",".join(self.numbers(self.pick(1, 1, 3), 0, 5))]
        if action == "sum":
            return ["diagram", action, self.diagram_spec(), self.number(0, 5),
                    self.diagram_spec(), self.number(0, 5)]
        return ["diagram", action, self.diagram_spec()]

    def cmd_color(self):
        action = self.pick("count", "list", "matrix")
        table = ["--table"] if self.rng.random() < 0.3 else []
        if action == "matrix":
            return ["color", action, self.diagram_spec(), *self.numbers(5, 0, 5), *table]
        return ["color", action, self.diagram_spec(), self.algebra_spec(), *table]

    def cmd_quiver(self):
        action = self.pick("build", "indeg", "iso")
        roll = self.rng.random()
        if roll < 0.4:
            endos = []
        elif roll < 0.6:
            endos = ["--all-endos"]
        else:
            endos = ["--endo", ",".join(self.numbers(self.rng.randint(1, 4), 1, 4))]
            endos += ["--all-endos"] if roll < 0.7 else []
        if action == "iso":
            return ["quiver", action, self.file(DUMP), self.file(DUMP), *endos[:2]]
        return ["quiver", action, self.diagram_spec(), self.algebra_spec(), *endos]

    def cmd_bridge(self):
        action = self.pick("seeds", "lower")
        argv = ["bridge", action, self.diagram_spec()]
        # each option is mostly given to the action it applies to
        if self.rng.random() < (0.6 if action == "seeds" else 0.05):
            argv += ["--kmax", self.number(0, 3)]
        algebras = self.rng.randint(1, 2) if action == "lower" else int(self.rng.random() < 0.05)
        for _ in range(algebras):
            argv += ["--alg", self.algebra_spec()]
        if self.rng.random() < (0.6 if action == "lower" else 0.05):
            argv += ["--mode", self.pick("b1", "b2", "b2", "b3")]
        return argv

    def cmd_enhance(self):
        return ["enhance", self.pick("colgroup", "colgroup", "colgroup", "other"),
                self.diagram_spec(), self.algebra_spec()]

    def cmd_knots(self):
        return ["knots", *self.pick(["list"], ["show", self.pick(*KNOTS)], ["show"])]

    def cmd_repro(self):
        return ["repro", "--item", self.pick(*ITEMS), *self.pick([], ["--timings"])]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_drawn_argv_keeps_the_exit_code_contract(tmp_path, capsys, seed):
    grammar = Grammar(random.Random(seed), tmp_path)
    codes = set()
    for _ in range(400):
        argv = grammar.argv()
        try:
            code = main(argv)
        except (Exception, SystemExit) as e:
            pytest.fail(f"{argv} raised {e!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert not (code == 0 and grammar.non_integer), argv
        if code == 0:
            assert err == "", (argv, err)
        elif err.startswith(("usage error: ", "error: ")):
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "" or err.startswith("usage: biqknot"), (argv, err)
        codes.add(code)
    assert codes == {0, 1, 2}  # the grammar reaches every outcome
