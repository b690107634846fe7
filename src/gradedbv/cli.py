"""Command-line surface.

Commands: check, eval, double, gysin, mutate.  Exit codes: 0 success,
2 validation failure, 3 relation failure, 4 an expected failure did not
occur, 64 usage error or a run that checked no relation.
"""

from __future__ import annotations

import argparse
import sys

from .checks import Window
from .core import EngineError, field_by_name
from .double import DoubleError, build_double
from .expr import ParseError, evaluate, parse, parse_element, source_arity
from .gysin import GysinError, canonical_gysin, check_lie_bialgebra
from .models import (BUILTIN_MODEL_NAMES, MAX_INPUT_U_POWER, MUTATIONS,
                     SphereSpace, builtin_model, mutate,
                     normalize_sphere_name)
from .reportio import (InstanceFileError, gysin_from_section, load_instance,
                       render_document, report_document, save_instance,
                       write_report)
from .structures import (BVUI_FULL, CONSEQUENCES, FROBENIUS_FULL,
                         ValidationError, check_structure)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RELATION = 3
EXIT_EXPECTED_FAILURE_MISSING = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve(target, field):
    """A built-in model name or a path to an instance file."""
    import os
    try:
        return builtin_model(target, field)
    except EngineError as exc:
        looks_like_path = (os.sep in target or target.endswith(".json")
                           or os.path.exists(target))
        if not looks_like_path:
            raise exc
    return load_instance(target, field)


def _window_index(text):
    """A window index in 0..MAX_INPUT_U_POWER: a sphere window of index k
    enumerates 2k + 2 names per slot, so larger ones exhaust memory."""
    digits = text.lstrip("0") or "0"
    # lengths first: int() refuses strings of more than a few thousand digits
    value = -1
    if text.isdecimal() and len(digits) <= len(str(MAX_INPUT_U_POWER)):
        value = int(digits)
    if not 0 <= value <= MAX_INPUT_U_POWER:
        raise argparse.ArgumentTypeError(
            "expected an integer from 0 to %d, got %r" % (MAX_INPUT_U_POWER, text))
    return value


def _window(args):
    k = args.window
    k3 = getattr(args, "window3", None)
    return Window(k, k3 if k3 is not None else k)


def _suite_for(args, instance):
    name = args.suite
    if name == "bvui":
        return BVUI_FULL
    if name == "frobenius":
        return FROBENIUS_FULL
    if name == "consequences":
        return CONSEQUENCES
    if name == "all":
        return _full_suite(instance)
    raise EngineError("unknown suite %r" % name)


def _full_suite(instance):
    base = FROBENIUS_FULL if instance.has_counit else BVUI_FULL
    return base + CONSEQUENCES + ("NineTerm",)


def _emit(doc, args):
    print(render_document(doc))
    if getattr(args, "out", None):
        write_report(doc, args.out)


def _exit_for(reports):
    """0 when every executed check passes, 3 on a failure, 64 when no
    relation was checked at all (every report skipped)."""
    if not any(r.status in ("pass", "fail") for r in reports):
        print("error: no relation was checked", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_RELATION if any(r.status == "fail" for r in reports) else EXIT_OK


def cmd_check(args):
    field = field_by_name(args.field)
    instance = _resolve(args.target, field)
    window = _window(args)
    suite = _suite_for(args, instance)
    reports = check_structure(instance, suite, window)
    doc = report_document("check", instance.name, field, window, reports)
    _emit(doc, args)
    return _exit_for(reports)


def cmd_eval(args):
    field = field_by_name(args.field)
    instance = _resolve(args.target, field)
    ctx = instance.context()
    expr = parse(args.expr)
    arity = source_arity(expr, ctx)
    spaces = (instance.space,) * arity
    normalize = (normalize_sphere_name
                 if isinstance(instance.space, SphereSpace) else None)
    value = parse_element(args.input, spaces, field, normalize=normalize)
    result = evaluate(expr, ctx, value)
    print(result)
    return EXIT_OK


def cmd_double(args):
    field = field_by_name(args.field)
    instance = _resolve(args.target, field)
    try:
        doubled = build_double(instance)
    except DoubleError as exc:
        print("double rejected: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    window = _window(args)
    reports = check_structure(doubled, FROBENIUS_FULL, window)
    doc = report_document("double", doubled.name, field, window, reports)
    _emit(doc, args)
    if args.save:
        save_instance(doubled, args.save)
        print("wrote %s" % args.save)
    return _exit_for(reports)


def cmd_gysin(args):
    field = field_by_name(args.field)
    instance = _resolve(args.target, field)
    window = _window(args)
    try:
        data = gysin_from_section(instance.gysin_section, instance)
        if data is None:
            data = canonical_gysin(instance, window)
        else:
            data.validate(instance, window)
    except GysinError as exc:
        print("gysin data invalid: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    reports = check_lie_bialgebra(instance, data, window)
    doc = report_document("gysin", instance.name, field, window, reports)
    _emit(doc, args)
    return _exit_for(reports)


def cmd_mutate(args):
    field = field_by_name(args.field)
    instance = builtin_model(args.target, field)
    mutated = mutate(instance, args.mutation)
    window = _window(args)
    reports = check_structure(mutated, _full_suite(mutated), window)
    doc = report_document("mutate", mutated.name, field, window, reports,
                          extra={"mutation": args.mutation})
    _emit(doc, args)
    failed = any(r.status == "fail" for r in reports)
    if args.mutation == "identity":
        return EXIT_RELATION if failed else EXIT_OK
    if failed:
        return EXIT_OK
    print("expected at least one relation to fail, but all passed",
          file=sys.stderr)
    return EXIT_EXPECTED_FAILURE_MISSING


def build_parser():
    parser = _Parser(prog="gradedbv",
                     description="exact checker for graded BV bialgebra "
                                 "and Frobenius structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=True):
        p.add_argument("target",
                       help="built-in model (%s) or instance file path"
                            % ", ".join(BUILTIN_MODEL_NAMES))
        p.add_argument("--field", default="Q", help="Q or Fp:<prime>")
        if window:
            p.add_argument("--window", type=_window_index, default=4,
                           help="max basis index per input slot")
            p.add_argument("--window3", type=_window_index, default=None,
                           help="override for three-input relations")
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; has no effect")
            p.add_argument("--out", default=None,
                           help="also write the report as JSON")

    p = sub.add_parser("check", help="run a relation suite")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=["bvui", "frobenius", "consequences", "all"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate an expression on an element")
    common(p, window=False)
    p.add_argument("--expr", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("double", help="build the double and verify it")
    common(p)
    p.add_argument("--save", default=None,
                   help="write the doubled instance to a file")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("gysin", help="erase/mark layer and Lie bialgebra checks")
    common(p)
    p.set_defaults(func=cmd_gysin)

    p = sub.add_parser("mutate", help="apply a named mutation, expect failure")
    common(p)
    p.add_argument("--mutation", required=True,
                   help="one of: %s" % ", ".join(sorted(MUTATIONS)))
    p.set_defaults(func=cmd_mutate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFileError, ValidationError) as exc:
        problems = getattr(exc, "problems", [str(exc)])
        for problem in problems:
            print("invalid: %s" % problem, file=sys.stderr)
        return EXIT_VALIDATION
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (OSError,) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
