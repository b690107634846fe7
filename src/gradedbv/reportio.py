"""Instance file format and report serialization.

Instances are JSON documents listing a graded basis and sparse
structure constants; unspecified constants are zero.  Loading validates
everything it can and reports every violated invariant, not only the
first.  Reports serialize deterministically (sorted keys, no
timestamps) so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json

from .core import Element, EngineError, FiniteSpace, GradedMap, field_by_name
from .gysin import GysinData
from .structures import BVUIInstance, FrobeniusInstance, ValidationError

ENGINE_VERSION = "gradedbv 0.1.0"


class InstanceFileError(ValidationError):
    pass


def _parse_coeff(raw, field, problems, where):
    try:
        if isinstance(raw, (int, str)):
            return field.coerce(raw)
    except (EngineError, ValueError, ZeroDivisionError):
        pass
    problems.append("%s: bad coefficient %r" % (where, raw))
    return field.coerce(0)


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
    if arity == 0:
        if raw in ((), [], None):
            return ()
        problems.append("%s: output name %r for a scalar output" % (where, raw))
        return None
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


def _load_entries(doc, section, src_arity, tgt_arity, degree, space, field,
                  problems):
    declared = set(space.basis_names())
    spaces_src = (space,) * src_arity
    spaces_tgt = (space,) * tgt_arity
    table = {}
    for idx, entry in _objects(doc, section, problems):
        where = "%s[%d]" % (section, idx)
        inputs = entry.get("inputs", [])
        if (not isinstance(inputs, list) or len(inputs) != src_arity
                or not all(isinstance(x, str) for x in inputs)):
            problems.append("%s: inputs %r must be %d basis names"
                            % (where, inputs, src_arity))
            continue
        missing = [x for x in inputs if x not in declared]
        if missing:
            problems.append("%s: undeclared basis names %s" % (where, missing))
            continue
        coeffs = {}
        for jdx, item in _objects(entry, "output", problems, where + "."):
            okey = _parse_output_key(item.get("name"), tgt_arity, problems,
                                     "%s.output[%d]" % (where, jdx))
            if okey is None:
                continue
            bad = [x for x in okey if x not in declared]
            if bad:
                problems.append("%s.output[%d]: undeclared basis names %s"
                                % (where, jdx, bad))
                continue
            value = _parse_coeff(item.get("coeff", 1), field, problems,
                                 "%s.output[%d]" % (where, jdx))
            in_deg = sum(space.degree(x) for x in inputs)
            out_deg = sum(space.degree(x) for x in okey)
            if out_deg != in_deg + degree:
                problems.append(
                    "%s.output[%d]: degree %d, expected input %d + map %d"
                    % (where, jdx, out_deg, in_deg, degree))
                continue
            coeffs[okey] = field.add(coeffs.get(okey, field.coerce(0)), value)
        key = tuple(inputs)
        out = Element(spaces_tgt, field, coeffs)
        table[key] = table[key] + out if key in table else out
    table = {k: v for k, v in table.items() if not v.is_zero()}
    return GradedMap(spaces_src, spaces_tgt, degree, field, name=section,
                     table=table)


def _load_element(doc, section, space, field, problems, want_degree=None):
    coeffs = {}
    for idx, item in _objects(doc, section, problems):
        where = "%s[%d]" % (section, idx)
        name = item.get("name")
        if not isinstance(name, str) or not space.contains(name):
            problems.append("%s: undeclared basis name %r" % (where, name))
            continue
        if want_degree is not None and space.degree(name) != want_degree:
            problems.append("%s: %r has degree %d, expected %d"
                            % (where, name, space.degree(name), want_degree))
            continue
        value = _parse_coeff(item.get("coeff", 1), field, problems, where)
        coeffs[(name,)] = field.add(coeffs.get((name,), field.coerce(0)), value)
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
    if not isinstance(lam_degree, int):
        problems.append("lambda_degree must be an integer")
        lam_degree = -1
    elif lam_degree % 2 == 0:
        problems.append("lambda_degree %d must be odd" % lam_degree)

    degrees = {}
    for idx, item in _objects(doc, "basis", problems):
        bname, bdeg = item.get("name"), item.get("degree")
        if not isinstance(bname, str) or not isinstance(bdeg, int):
            problems.append("basis[%d]: need {name, degree}" % idx)
            continue
        if bname in degrees:
            problems.append("basis[%d]: duplicate name %r" % (idx, bname))
            continue
        degrees[bname] = bdeg
    if not degrees:
        problems.append("basis must declare at least one element")
    space = FiniteSpace(name, degrees)

    mu = _load_entries(doc, "mu", 2, 1, 0, space, field, problems)
    lam = _load_entries(doc, "lambda", 1, 2, lam_degree, space, field, problems)
    delta = _load_entries(doc, "Delta", 1, 1, 1, space, field, problems)
    eta = _load_element(doc, "eta", space, field, problems, want_degree=0)
    if eta.is_zero():
        problems.append("eta must be a nonzero element of degree 0")

    epsilon = None
    if doc.get("epsilon") is not None:
        eps_table = {}
        for idx, item in _objects(doc, "epsilon", problems):
            where = "epsilon[%d]" % idx
            ename = item.get("name")
            if not isinstance(ename, str) or not space.contains(ename):
                problems.append("%s: undeclared basis name %r" % (where, ename))
                continue
            if space.degree(ename) != lam_degree:
                problems.append("%s: %r has degree %d, the counit pairs "
                                "degree %d" % (where, ename,
                                               space.degree(ename), lam_degree))
                continue
            value = _parse_coeff(item.get("coeff", 1), field, problems, where)
            from .core import scalar_element
            eps_table[(ename,)] = scalar_element(field, value)
        epsilon = GradedMap((space,), (), -lam_degree, field, name="epsilon",
                            table=eps_table)

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
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(
            ["parse error in %s at line %d column %d: %s"
             % (path, exc.lineno, exc.colno, exc.msg)]) from None
    if not isinstance(doc, dict):
        raise InstanceFileError(["%s: top level must be an object" % path])
    instance = instance_from_dict(doc, field)
    instance.gysin_section = doc.get("gysin")
    return instance


def load_gysin(path, instance):
    """The optional gysin section of an instance file, validated."""
    with open(path, "r", encoding="utf-8") as handle:
        return gysin_from_section(json.load(handle).get("gysin"), instance)


def gysin_from_section(section, instance):
    """GysinData from the raw ``gysin`` section of an instance document,
    or None when there is none."""
    if section is None:
        return None
    if not isinstance(section, dict):
        raise InstanceFileError(["gysin: must be an object, got %r" % (section,)])
    problems = []
    field = instance.field
    degrees = {}
    for idx, item in _objects(section, "basis", problems, "gysin."):
        bname, bdeg = item.get("name"), item.get("degree")
        if not isinstance(bname, str) or not isinstance(bdeg, int):
            problems.append("gysin.basis[%d]: need {name, degree}" % idx)
            continue
        degrees[bname] = bdeg
    b_space = FiniteSpace(instance.name + "/classes", degrees)

    def load_map(tag, src, tgt, degree):
        table = {}
        for idx, entry in _objects(section, tag, problems, "gysin."):
            where = "gysin.%s[%d]" % (tag, idx)
            inputs = entry.get("inputs", [])
            if not (isinstance(inputs, list) and len(inputs) == 1
                    and isinstance(inputs[0], str) and src.contains(inputs[0])):
                problems.append("%s: inputs must be one declared name, got %r"
                                % (where, inputs))
                continue
            coeffs = {}
            for _, item in _objects(entry, "output", problems, where + "."):
                oname = item.get("name")
                if not isinstance(oname, str) or not tgt.contains(oname):
                    problems.append("%s: undeclared output %r" % (where, oname))
                    continue
                value = _parse_coeff(item.get("coeff", 1), field, problems, where)
                coeffs[(oname,)] = value
            table[(inputs[0],)] = Element((tgt,), field, coeffs)
        return GradedMap((src,), (tgt,), degree, field, name=tag, table=table)

    erase = load_map("E", instance.space, b_space, 0)
    mark = load_map("M", b_space, instance.space, 1)
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
