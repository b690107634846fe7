"""Every single-sign flip of every multi-term catalog relation fails.

A flip that no built-in instance detects means the checker cannot see
that term's sign.  The instances are the sphere model, the finite
built-ins and the doubles of the finite BVUI built-ins; on each, every
relation and all of its flips are walked in one ``check_relations``
call, so the flips share the relation's terms.  The Gysin relations are
not in the catalog and are not covered here.
"""

import gradedbv as g
from gradedbv.checks import Window, check_relations, sign_mutations
from gradedbv.double import build_double
from gradedbv.structures import builtin_relation, is_applicable, relation_ids

# flip id -> why no instance can detect it; none today
UNDETECTABLE = {}


def _instances():
    """(instance, window) pairs: every flip must fail on one of them."""
    finite = [g.builtin_model(name) for name in
              ("sphere-frob:3", "trivial", "exterior", "three-dim",
               "exterior-bv")]
    doubles = [build_double(inst) for inst in g.finite_bvui_examples()]
    return ([(g.sphere_model(3), Window(3, 2))]
            + [(inst, Window()) for inst in finite + doubles])


def test_every_sign_flip_fails_on_some_instance():
    relations = [builtin_relation(rid) for rid in relation_ids()]
    relations = [spec for spec in relations
                 if sum(len(group) for group in spec.groups) > 1]
    flips = [(spec.rid, flip) for spec in relations
             for flip in sign_mutations(spec)]
    assert len(flips) == 101
    caught = set()
    for inst, window in _instances():
        specs = relations + [flip for _, flip in flips]
        reports = check_relations(
            specs, inst.context(), inst.space, window, inst.name,
            lambda spec: is_applicable(spec, inst))
        # a flip counts where its relation holds
        holds = {r.relation for r in reports[:len(relations)]
                 if r.status == "pass"}
        caught.update(r.relation for (rid, _), r in
                      zip(flips, reports[len(relations):])
                      if rid in holds and r.status == "fail")
    assert all(UNDETECTABLE.values())
    assert {flip.rid for _, flip in flips} - caught == set(UNDETECTABLE)
