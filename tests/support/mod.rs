//! Test data shared by the golden snapshots.

/// The stratified programs of `crates/datalog/tests/negation.rs`.
pub const NEGATION: &[&str] = &[
    r"r1 1.0: orphan(X) :- person(X), \+ parent(X). person(a). parent(a).",
    r"r1 1.0: orphan(X) :- person(X), not parent(X). person(a). parent(a).",
    "r1 1.0: q(X) :- not(X). t1 1.0: not(a).",
    r"r1 1.0: unreachable(X) :- node(X), \+ reach(X).
      r2 1.0: reach(X) :- src(X).
      r3 1.0: reach(Y) :- reach(X), edge(X,Y).
      node(a). node(b). node(c). node(d).
      src(a). edge(a,b). edge(b,c).",
    r"r0 1.0: unreachable(X) :- node(X), \+ reach(X).
      r1 1.0: reach(X) :- src(X).
      r2 1.0: reach(Y) :- reach(X), edge(X,Y).
      node(a). node(b). node(c).
      src(a). edge(a,b). edge(b,c).",
    r"r1 1.0: a(X) :- base(X).
      r2 1.0: b(X) :- base(X), \+ a(X).
      r3 1.0: c(X) :- base(X), \+ b(X).
      base(x1). base(x2).",
    r"r1 1.0: q(X) :- cand(X), \+ blocked(X).
      cand(a).
      b1 0.3: blocked(a).",
    r"r1 1.0: reach(X) :- src(X).
      r2 1.0: reach(Y) :- reach(X), edge(X,Y).
      r3 1.0: unreachable(X) :- node(X), \+ reach(X).
      node(b). src(a).
      e1 0.6: edge(a,b).",
    "r1 0.9: orphan(X) :- person(X), \\+ parent(X).\nperson(a).",
    r"r1 1.0: lonely(X) :- person(X), \+ knows(X,X), \+ friend(X).
      r2 1.0: knows(X,Y) :- intro(X,Y), X != Y.
      person(a). person(b).
      intro(a,b). friend(b).",
    "r1 1.0: q(X) :- p(X). p(a).",
];
