"""Instance file format and report serialization.

Instances are JSON documents listing a graded basis and sparse
structure constants; unspecified constants are zero.  Loading validates
everything it can and reports every violated invariant, not only the
first.  Reports serialize deterministically (sorted keys, no
timestamps) so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import re

from .core import (Element, EngineError, FiniteSpace, accumulate, field_by_name,
                   table_map)
from .expr import MAX_COEFF_CHARS
from .gysin import GysinData
from .structures import BVUIInstance, FrobeniusInstance, ValidationError

ENGINE_VERSION = "gradedbv 0.1.0"


class InstanceFileError(ValidationError):
    pass


def _is_int(value):
    """A JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


_COEFF = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")
_INT_BOUND = 10 ** MAX_COEFF_CHARS


def _parse_coeff(raw, field, problems, where):
    """A coefficient: an integer below 10^MAX_COEFF_CHARS in absolute
    value, or a string of an optional sign and ASCII digits, optionally
    followed by ``/digits`` or ``.digits``, of at most MAX_COEFF_CHARS
    characters.  The form is checked before ``Fraction`` reads the text,
    so exponents, spaces and underscores are bad coefficients."""
    if _is_int(raw):
        ok = abs(raw) < _INT_BOUND
    else:
        ok = (isinstance(raw, str) and len(raw) <= MAX_COEFF_CHARS
              and _COEFF.fullmatch(raw) is not None)
    if ok:
        try:
            return field.coerce(raw)
        except (EngineError, ZeroDivisionError):
            pass
    problems.append("%s: bad coefficient %r" % (where, raw))
    return field.coerce(0)


def _json_int(text):
    """A JSON integer literal, refused above MAX_COEFF_CHARS digits
    before ``int`` reads it."""
    if len(text.lstrip("-")) > MAX_COEFF_CHARS:
        raise ValueError("an integer has more than %d digits" % MAX_COEFF_CHARS)
    return int(text)


def _objects(container, section, problems, prefix=""):
    """(index, entry) for each object of a list section; anything else
    is reported as a problem."""
    where = prefix + section
    raw = container.get(section) or []
    if not isinstance(raw, list):
        problems.append("%s: must be a list, got %r" % (where, raw))
        return []
    out = []
    for idx, item in enumerate(raw):
        if isinstance(item, dict):
            out.append((idx, item))
        else:
            problems.append("%s[%d]: must be an object, got %r" % (where, idx, item))
    return out


def _parse_output_key(raw, arity, problems, where):
    if isinstance(raw, str):
        key = (raw,)
    elif isinstance(raw, (list, tuple)) and all(isinstance(x, str) for x in raw):
        key = tuple(raw)
    else:
        problems.append("%s: bad output name %r" % (where, raw))
        return None
    if len(key) != arity:
        problems.append("%s: output %r has %d slots, expected %d"
                        % (where, raw, len(key), arity))
        return None
    return key


def _load_basis(doc, problems, prefix=""):
    """{name: degree} of the ``basis`` section; a repeated name is a
    problem."""
    degrees = {}
    for idx, item in _objects(doc, "basis", problems, prefix):
        where = "%sbasis[%d]" % (prefix, idx)
        bname, bdeg = item.get("name"), item.get("degree")
        if not isinstance(bname, str) or not _is_int(bdeg):
            problems.append("%s: need {name, degree}" % where)
            continue
        if bname in degrees:
            problems.append("%s: duplicate name %r" % (where, bname))
            continue
        degrees[bname] = bdeg
    return degrees


def _load_map(doc, section, source, target, degree, field, problems,
              prefix=""):
    """The table map of a list section of {inputs, output} entries from
    the ``source`` slot spaces to the ``target`` ones; repeated entries
    and outputs are summed."""
    entries = []
    for idx, entry in _objects(doc, section, problems, prefix):
        where = "%s%s[%d]" % (prefix, section, idx)
        inputs = entry.get("inputs", [])
        if (not isinstance(inputs, list) or len(inputs) != len(source)
                or not all(isinstance(x, str) for x in inputs)):
            problems.append("%s: inputs %r must be %d basis names"
                            % (where, inputs, len(source)))
            continue
        missing = [x for s, x in zip(source, inputs) if not s.contains(x)]
        if missing:
            problems.append("%s: undeclared basis names %s" % (where, missing))
            continue
        in_deg = sum(s.degree(x) for s, x in zip(source, inputs))
        for jdx, item in _objects(entry, "output", problems, where + "."):
            at = "%s.output[%d]" % (where, jdx)
            okey = _parse_output_key(item.get("name"), len(target), problems, at)
            if okey is None:
                continue
            bad = [x for t, x in zip(target, okey) if not t.contains(x)]
            if bad:
                problems.append("%s: undeclared basis names %s" % (at, bad))
                continue
            value = _parse_coeff(item.get("coeff", 1), field, problems, at)
            out_deg = sum(t.degree(x) for t, x in zip(target, okey))
            if out_deg != in_deg + degree:
                problems.append("%s: degree %d, expected input %d + map %d"
                                % (at, out_deg, in_deg, degree))
                continue
            entries.append((inputs, okey, value))
    return table_map(source, target, degree, field, entries, section)


def _load_element(doc, section, space, field, problems, want_degree=None,
                  role="expected"):
    """An element of ``space`` from a list of {name, coeff} entries, each
    of degree ``want_degree`` when given; repeated names are summed."""
    coeffs = {}
    for idx, item in _objects(doc, section, problems):
        where = "%s[%d]" % (section, idx)
        name = item.get("name")
        if not isinstance(name, str) or not space.contains(name):
            problems.append("%s: undeclared basis name %r" % (where, name))
            continue
        if want_degree is not None and space.degree(name) != want_degree:
            problems.append("%s: %r has degree %d, %s %d"
                            % (where, name, space.degree(name), role,
                               want_degree))
            continue
        value = _parse_coeff(item.get("coeff", 1), field, problems, where)
        # the coefficient is the scalar: a zero one adds nothing
        accumulate(coeffs, (((name,), field.one),), value, field)
    return Element((space,), field, coeffs)


def instance_from_dict(doc, field=None):
    problems = []
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        problems.append("name must be a string, got %r" % (name,))
    name = name if isinstance(name, str) and name else "unnamed"
    try:
        field = field or field_by_name(str(doc.get("field", "Q")))
    except EngineError as exc:
        raise InstanceFileError([str(exc)]) from None
    lam_degree = doc.get("lambda_degree")
    if not _is_int(lam_degree):
        problems.append("lambda_degree must be an integer")
        lam_degree = -1
    elif lam_degree % 2 == 0:
        problems.append("lambda_degree %d must be odd" % lam_degree)

    degrees = _load_basis(doc, problems)
    if not degrees:
        problems.append("basis must declare at least one element")
    space = FiniteSpace(name, degrees)
    spaces1, spaces2 = (space,), (space, space)

    mu = _load_map(doc, "mu", spaces2, spaces1, 0, field, problems)
    lam = _load_map(doc, "lambda", spaces1, spaces2, lam_degree, field,
                    problems)
    delta = _load_map(doc, "Delta", spaces1, spaces1, 1, field, problems)
    eta = _load_element(doc, "eta", space, field, problems, want_degree=0)
    if eta.is_zero():
        problems.append("eta must be a nonzero element of degree 0")

    epsilon = None
    if doc.get("epsilon") is not None:
        covector = _load_element(doc, "epsilon", space, field, problems,
                                 lam_degree, "the counit pairs degree")
        epsilon = table_map(spaces1, (), -lam_degree, field,
                            [(key, (), c) for key, c in covector.coeffs.items()],
                            "epsilon")

    if problems:
        raise InstanceFileError(problems)
    try:
        if epsilon is not None:
            return FrobeniusInstance(name, space, field, mu, eta, lam, delta,
                                     lam_degree, epsilon)
        return BVUIInstance(name, space, field, mu, eta, lam, delta, lam_degree)
    except ValidationError as exc:
        raise InstanceFileError(exc.problems) from None


def load_instance(path, field=None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(
            ["parse error in %s at line %d column %d: %s"
             % (path, exc.lineno, exc.colno, exc.msg)]) from None
    except ValueError as exc:       # an over-long integer, or not UTF-8
        raise InstanceFileError(["parse error in %s: %s" % (path, exc)]) from None
    except RecursionError:
        raise InstanceFileError(["parse error in %s: arrays or objects nest "
                                 "too deeply" % path]) from None
    if not isinstance(doc, dict):
        raise InstanceFileError(["%s: top level must be an object" % path])
    instance = instance_from_dict(doc, field)
    instance.gysin_section = doc.get("gysin")
    return instance


def gysin_from_section(section, instance):
    """GysinData from the raw ``gysin`` section of an instance document,
    or None when there is none; read like the instance's own sections."""
    if section is None:
        return None
    if not isinstance(section, dict):
        raise InstanceFileError(["gysin: must be an object, got %r" % (section,)])
    problems = []
    b_space = FiniteSpace(instance.name + "/classes",
                          _load_basis(section, problems, "gysin."))
    erase = _load_map(section, "E", (instance.space,), (b_space,), 0,
                      instance.field, problems, "gysin.")
    mark = _load_map(section, "M", (b_space,), (instance.space,), 1,
                     instance.field, problems, "gysin.")
    if problems:
        raise InstanceFileError(problems)
    return GysinData(b_space, erase, mark)


def save_instance(instance, path):
    """Write a finite instance back out; semantically round-trips."""
    space = instance.space
    if not space.is_finite():
        raise EngineError("cannot serialize the rule-generated instance %s"
                          % instance.name)
    field = instance.field

    def entries(gmap):
        out = []
        for key, elem in sorted(gmap.as_table().items()):
            output = [{"name": list(k) if len(k) != 1 else k[0],
                       "coeff": field.fmt(v)}
                      for k, v in elem.items()]
            out.append({"inputs": list(key), "output": output})
        return out

    doc = {
        "name": instance.name,
        "field": field.name,
        "lambda_degree": instance.lam_degree,
        "basis": [{"name": n, "degree": space.degree(n)}
                  for n in sorted(space.basis_names())],
        "mu": entries(instance.mu),
        "lambda": entries(instance.lam),
        "Delta": entries(instance.delta),
        "eta": [{"name": k[0], "coeff": field.fmt(v)}
                for k, v in instance.eta.items()],
    }
    if instance.has_counit:
        doc["epsilon"] = [
            {"name": key[0], "coeff": field.fmt(out.coeffs[()])}
            for key, out in sorted(instance.epsilon.as_table().items())]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def report_document(command, instance_name, field, window, reports,
                    extra=None):
    body = [{
        "relation": r.relation,
        "description": r.description,
        "instance": r.instance,
        "window": r.window,
        "tuples_checked": r.tuples_checked,
        "status": r.status,
        "skip_reason": r.skip_reason,
        "witnesses": [
            {"input": list(key), "group": group, "residual": str(res)}
            for key, group, res in r.witnesses],
    } for r in reports]
    doc = {
        "engine": ENGINE_VERSION,
        "command": command,
        "instance": instance_name,
        "field": field.name,
        "window": {"k": window.k, "k3": window.k3},
        "reports": body,
        "summary": {
            "pass": sum(r.status == "pass" for r in reports),
            "fail": sum(r.status == "fail" for r in reports),
            "skipped": sum(r.status == "skipped" for r in reports),
        },
    }
    if extra:
        doc.update(extra)
    return doc


def write_report(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_document(doc):
    lines = ["%s | %s %s over %s" % (doc["engine"], doc["command"],
                                     doc["instance"], doc["field"])]
    for r in doc["reports"]:
        line = "[%s] %-22s (%d tuples, %s)" % (
            r["status"].upper(), r["relation"], r["tuples_checked"], r["window"])
        if r["skip_reason"]:
            line += " reason: %s" % r["skip_reason"]
        lines.append(line)
        for w in r["witnesses"]:
            where = "(x)".join(w["input"]) if w["input"] else "1"
            lines.append("    witness %s [group %d]: residual %s"
                         % (where, w["group"], w["residual"]))
    s = doc["summary"]
    lines.append("summary: %d pass, %d fail, %d skipped"
                 % (s["pass"], s["fail"], s["skipped"]))
    return "\n".join(lines)
