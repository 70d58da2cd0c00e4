"""Command-line interface.

Exit codes: 0 = trivial / success, 1 = nontrivial, 2 = undetermined
(budget or incompleteness), 3 = usage error, 4 = structural error.

Words use the compact signed syntax (lowercase = generator, uppercase =
its inverse); presentations come from a file via --presentation:

    generators: a b c
    m: a b 3
    # unlisted pairs are free (label infinity)
"""

from __future__ import annotations

import argparse
import sys

from .dihedral import Dihedral, padding_bound
from .errors import BudgetExhausted, PresentationError, StructuralError
from .monoid import Monoid
from .multifraction import DEFAULT_LCM_BUDGET, DEFAULT_STATE_BUDGET, Multifraction, _ReductionStates
from .presentation import parse_presentation
from .solver import PaddingStrategy, decide, verdict_json
from .split import DEFAULT_SPLIT_STATE_BUDGET, split_reduces_to_trivial
from .transforms import search_empty_word
from .reversing import DEFAULT_STEP_BUDGET, reverse_full
from .words import parse_signed, signed_str

EXIT_TRIVIAL = 0
EXIT_NONTRIVIAL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 3
EXIT_STRUCTURAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="multifrac", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def with_presentation(sp):
        sp.add_argument("--presentation", required=True, metavar="PATH",
                        help="presentation file")

    sp = sub.add_parser("solve", help="decide whether a word represents 1")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--strategy", choices=["none", "constant", "quadratic"], default="none",
                    help="padding strategy (default: none); 'quadratic' pads "
                         "3*l*(l+2)/4 pairs, which makes an exhausted search a "
                         "proof of nontriviality on sufficiently-large presentations")
    sp.add_argument("--padding", type=int, default=None, metavar="P",
                    help="pairs of trivial entries for --strategy constant")
    sp.add_argument("--assume-fc", action="store_true",
                    help="trust the presentation to be of FC type (reduction "
                         "convergent), making an exhausted search a proof of "
                         "nontriviality at any padding")
    sp.add_argument("--state-budget", type=_nonnegative_int, default=DEFAULT_STATE_BUDGET)
    sp.add_argument("--lcm-budget", type=_nonnegative_int, default=DEFAULT_LCM_BUDGET)
    sp.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    sp = sub.add_parser("reduce", help="greedily reduce a multifraction to an irreducible one")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--max-steps", type=_nonnegative_int, default=10_000)

    sp = sub.add_parser("split", help="search for a trivializing split-reduction trace")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--state-budget", type=_nonnegative_int, default=DEFAULT_SPLIT_STATE_BUDGET)
    sp.add_argument("--max-depth", type=_nonnegative_int, default=None)

    sp = sub.add_parser("reverse", help="fully reverse a signed word")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--side", choices=["right", "left"], default="right")
    sp.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_STEP_BUDGET)

    sp = sub.add_parser("proph", help="search for an emptying sequence of special transformations")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--state-budget", type=_nonnegative_int, default=DEFAULT_STATE_BUDGET)

    for name, what in (("lcm", "least common multiple"), ("gcd", "greatest common divisor")):
        sp = sub.add_parser(name, help=f"{what} of two positive words")
        with_presentation(sp)
        sp.add_argument("u")
        sp.add_argument("v")
        sp.add_argument("--side", choices=["right", "left"], default="right")

    sp = sub.add_parser("nf", help="fractional normal form of a two-generator word")
    with_presentation(sp)
    sp.add_argument("word")
    sp.add_argument("--side", choices=["right", "left"], default="right")
    sp.add_argument("--pair", metavar="ST", default=None,
                    help="the two generators, e.g. 'ab' (inferred from the word if omitted)")

    sp = sub.add_parser("classify", help="report the sufficiently-large triangle condition")
    with_presentation(sp)

    sp = sub.add_parser("bound", help="quadratic padding bound for an even word-length")
    sp.add_argument("length", type=int)
    return p


def _load(path: str) -> Monoid:
    with open(path, encoding="utf-8") as fh:
        return Monoid(parse_presentation(fh.read()))


def _trace_lines(trace) -> list[str]:
    return [str(step.json_obj()) for step in trace]


_parser: _Parser | None = None


def _get_parser() -> _Parser:
    """The parser, built on first use: building it costs about as much as a
    small query, and parsing leaves it unchanged."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    return _parser


def main(argv=None) -> int:
    try:
        args = _get_parser().parse_args(argv)
        return _dispatch(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (PresentationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def _dispatch(args) -> int:
    if args.command == "bound":
        print(padding_bound(args.length))
        return EXIT_TRIVIAL

    monoid = _load(args.presentation)
    pres = monoid.presentation

    if args.command == "classify":
        print(f"sufficiently-large: {'true' if pres.is_sufficiently_large() else 'false'}")
        return EXIT_TRIVIAL

    if args.command == "solve":
        if args.padding is not None and args.strategy != "constant":
            raise ValueError("--padding needs --strategy constant")
        if args.strategy == "constant":
            strategy = PaddingStrategy.constant(args.padding or 0)
        elif args.strategy == "quadratic":
            strategy = PaddingStrategy.quadratic()
        else:
            strategy = PaddingStrategy.none()
        verdict = decide(
            monoid, args.word, strategy,
            assume_fc=args.assume_fc,
            state_budget=args.state_budget,
            lcm_budget=args.lcm_budget,
        )
        if args.json:
            print(verdict_json(monoid, args.word, verdict))
        else:
            print(f"answer: {verdict.answer} (padding {verdict.padding}, "
                  f"states {verdict.states}, steps {verdict.steps})")
            for line in _trace_lines(verdict.trace):
                print(line)
            if verdict.reason:
                print(f"reason: {verdict.reason}")
        return {"trivial": EXIT_TRIVIAL, "nontrivial": EXIT_NONTRIVIAL}.get(
            verdict.answer, EXIT_UNDETERMINED
        )

    if args.command == "reduce":
        states = _ReductionStates(monoid, DEFAULT_LCM_BUDGET)
        state = states.encode(Multifraction.from_signed_word(monoid, parse_signed(pres, args.word)).entries)
        steps = 0
        while True:
            # the last state is enumerated too: only that tells whether it is irreducible
            children, complete = states.children(state)
            if not children or steps >= args.max_steps:
                break
            step, state = states.step(state, *children[0][1])
            print(step.json_obj())
            steps += 1
        a = Multifraction._of(monoid, states.decode(state))
        if children:
            print(f"stopped after {steps} steps: {a}")
            return EXIT_UNDETERMINED
        if not complete:
            print(f"undetermined (lcm budget): {a}")
            return EXIT_UNDETERMINED
        print(f"irreducible: {a}")
        return EXIT_TRIVIAL

    if args.command == "split":
        a = Multifraction.from_signed_word(monoid, parse_signed(pres, args.word))
        res = split_reduces_to_trivial(
            a, state_budget=args.state_budget, max_depth=args.max_depth
        )
        if res.found:
            for line in _trace_lines(res.trace):
                print(line)
            print(f"trivial (states {res.states}, steps {res.steps})")
            return EXIT_TRIVIAL
        print(f"not found (states {res.states}, steps {res.steps}"
              f"{', ' + res.reason if res.reason else ''})")
        return EXIT_UNDETERMINED

    if args.command == "reverse":
        w = parse_signed(pres, args.word)
        res = reverse_full(pres, args.side, w, args.budget)
        print(signed_str(pres, res.word) or "(empty)")
        print(f"steps: {res.steps}")
        return EXIT_TRIVIAL

    if args.command == "proph":
        res = search_empty_word(monoid, parse_signed(pres, args.word),
                                state_budget=args.state_budget)
        if res.found:
            for step in res.trace:
                print(step.json_obj(pres))
            print(f"empty word reached (states {res.states})")
            return EXIT_TRIVIAL
        print(f"not emptied (states {res.states}"
              f"{', ' + res.reason if res.reason else ''})")
        return EXIT_UNDETERMINED

    if args.command in ("lcm", "gcd"):
        x = monoid.element(monoid.presentation.encode(args.u))
        y = monoid.element(monoid.presentation.encode(args.v))
        if args.command == "gcd":
            print(monoid.gcd(args.side, x, y))
            return EXIT_TRIVIAL
        out = monoid.lcm(args.side, x, y)
        print("none" if out is None else out)
        return EXIT_TRIVIAL

    if args.command == "nf":
        w = parse_signed(pres, args.word)
        if args.pair:
            names = list(args.pair)
        else:
            names = sorted({pres.generators[abs(c) - 1] for c in w})
        if len(names) != 2:
            print("error: specify the generator pair with --pair", file=sys.stderr)
            return EXIT_USAGE
        d = Dihedral(monoid, names[0], names[1])
        print(d.normal_form(args.side, w))
        return EXIT_TRIVIAL

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
