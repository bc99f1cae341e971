//! The predicate dependency graph and its strongly connected components.
//!
//! Nodes are predicate symbols; there is an edge `head -> p` for every
//! predicate `p` in the positive or negated body of a rule defining `head`.
//! One iterative Tarjan pass groups the nodes into strongly connected
//! components (SCCs), dependencies first. Every reader of recursion works
//! from this one graph: [`Program`](crate::Program) stratifies by it,
//! `p3-lint` reports cycles and unstratified negation from it, `p3-analyze`
//! orders its cost model by it, and EXPLAIN marks a rule recursive with
//! [`DepGraph::rule_is_recursive`].

use crate::ast::Clause;
use crate::symbol::Symbol;
use std::collections::HashMap;

/// The predicate dependency graph of a clause list, condensed into SCCs.
///
/// It is built from raw clauses, so it also serves programs that fail
/// validation (the linter's input).
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// Dense node ids, in first-occurrence order (heads first, then bodies).
    preds: Vec<Symbol>,
    index: HashMap<Symbol, usize>,
    /// SCC members, dependencies first.
    sccs: Vec<Vec<usize>>,
    /// The SCC of each node.
    scc_of: Vec<usize>,
    /// Whether each SCC contains a cycle: more than one member, or a
    /// self-loop.
    recursive: Vec<bool>,
    /// Per SCC, the indices of the rules whose head lies in it, in source
    /// order.
    rules: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Builds the graph of `clauses` and condenses it.
    pub fn build(clauses: &[Clause]) -> Self {
        let mut preds: Vec<Symbol> = Vec::new();
        let mut index: HashMap<Symbol, usize> = HashMap::new();
        let mut node = |pred: Symbol| {
            *index.entry(pred).or_insert_with(|| {
                preds.push(pred);
                preds.len() - 1
            })
        };
        for clause in clauses {
            node(clause.head.pred);
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for clause in clauses {
            let head = node(clause.head.pred);
            for atom in clause.body().iter().chain(clause.negated()) {
                edges.push((head, node(atom.pred)));
            }
        }
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for (from, to) in edges {
            if !succ[from].contains(&to) {
                succ[from].push(to);
            }
        }

        let sccs = strongly_connected(&succ);
        let mut scc_of = vec![0; preds.len()];
        for (k, component) in sccs.iter().enumerate() {
            for &v in component {
                scc_of[v] = k;
            }
        }
        let recursive = sccs
            .iter()
            .map(|c| c.len() > 1 || succ[c[0]].contains(&c[0]))
            .collect();
        let mut rules = vec![Vec::new(); sccs.len()];
        for (i, clause) in clauses.iter().enumerate() {
            if clause.is_rule() {
                rules[scc_of[index[&clause.head.pred]]].push(i);
            }
        }
        DepGraph {
            preds,
            index,
            sccs,
            scc_of,
            recursive,
            rules,
        }
    }

    /// The predicate of node `v`.
    pub fn pred(&self, v: usize) -> Symbol {
        self.preds[v]
    }

    /// The SCCs as lists of node ids, dependencies first: every SCC a
    /// rule body reads comes before the SCC of the rule's head.
    pub fn sccs(&self) -> &[Vec<usize>] {
        &self.sccs
    }

    /// The SCC of `pred`, if the predicate occurs in the clauses.
    pub fn scc(&self, pred: Symbol) -> Option<usize> {
        self.index.get(&pred).map(|&v| self.scc_of[v])
    }

    /// Whether SCC `k` contains a cycle (mutual recursion or a self-loop).
    pub fn is_recursive(&self, k: usize) -> bool {
        self.recursive[k]
    }

    /// The indices of the rules whose head lies in SCC `k`, in source
    /// order.
    pub fn rules(&self, k: usize) -> &[usize] {
        &self.rules[k]
    }

    /// Whether `clause` is recursive: its positive body reads a predicate in
    /// its head's SCC, so semi-naive evaluation re-runs it every round of
    /// that SCC's fixpoint.
    pub fn rule_is_recursive(&self, clause: &Clause) -> bool {
        let head = self.scc(clause.head.pred);
        head.is_some() && clause.body().iter().any(|atom| self.scc(atom.pred) == head)
    }

    /// Positions of `clause`'s negated atoms whose predicate lies in the
    /// head's SCC: negation through recursion, which no stratification can
    /// order (`P3201`).
    pub fn unstratified<'a>(&'a self, clause: &'a Clause) -> impl Iterator<Item = usize> + 'a {
        let head = self.scc(clause.head.pred);
        clause
            .negated()
            .iter()
            .enumerate()
            .filter(move |(_, atom)| self.scc(atom.pred) == head)
            .map(|(j, _)| j)
    }

    /// The least stratum of each SCC: the largest stratum of its rules'
    /// body atoms outside it, plus one where the atom is negated. `clauses`
    /// must be the ones the graph was built from. `Err(i)` is the first
    /// clause, in source order, with an [`unstratified`](Self::unstratified)
    /// negation.
    pub fn strata(&self, clauses: &[Clause]) -> Result<Vec<usize>, usize> {
        if let Some(i) = clauses
            .iter()
            .position(|c| self.unstratified(c).next().is_some())
        {
            return Err(i);
        }
        let scc = |pred: Symbol| self.scc_of[self.index[&pred]];
        let mut strata = vec![0; self.sccs.len()];
        for k in 0..self.sccs.len() {
            // Atoms inside SCC `k` read its still-zero entry: positive ones
            // share the head's stratum and negated ones were rejected above.
            let mut stratum = 0;
            for clause in self.rules[k].iter().map(|&i| &clauses[i]) {
                for atom in clause.body() {
                    stratum = stratum.max(strata[scc(atom.pred)]);
                }
                for atom in clause.negated() {
                    stratum = stratum.max(strata[scc(atom.pred)] + 1);
                }
            }
            strata[k] = stratum;
        }
        Ok(strata)
    }
}

/// Strongly connected components of the graph with successor lists `succ`,
/// by iterative Tarjan. Components come out dependencies first: each one
/// after every component its members point to.
pub fn strongly_connected(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let n = succ.len();
    let mut order = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_order = 0usize;
    let mut components = Vec::new();
    // Explicit DFS frames: (node, index of next successor to visit).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if order[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut next)) = frames.last_mut() {
            if *next == 0 {
                order[v] = next_order;
                low[v] = next_order;
                next_order += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*next) {
                *next += 1;
                if order[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                }
                continue;
            }
            // All successors done: pop the frame, maybe emit an SCC.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == order[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                components.push(component);
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn graph_of(src: &str) -> (DepGraph, Program) {
        let program = Program::parse(src).expect("parse");
        let graph = DepGraph::build(program.clauses());
        (graph, program)
    }

    #[test]
    fn sccs_group_mutual_recursion() {
        let (graph, program) = graph_of(
            "f(a).\n\
             p(X) :- q(X).\n\
             q(X) :- p(X).\n\
             r(X) :- p(X), f(X).\n",
        );
        let sym = |name| program.symbols().get(name).unwrap();
        let pq = graph.scc(sym("p")).unwrap();
        assert_eq!(graph.scc(sym("q")), Some(pq));
        assert_eq!(graph.sccs()[pq].len(), 2);
        assert!(graph.is_recursive(pq));
        assert!(!graph.is_recursive(graph.scc(sym("r")).unwrap()));
        // Dependencies first: p/q before r, which reads them.
        assert!(pq < graph.scc(sym("r")).unwrap());
        let rules = |k: usize| graph.rules(k).to_vec();
        assert_eq!(rules(pq), vec![1, 2]);
    }

    #[test]
    fn self_loop_detected() {
        let (graph, program) = graph_of("e(a,b).\nt(X,Y) :- e(X,Y).\nt(X,Y) :- t(X,Z), e(Z,Y).\n");
        let t = graph.scc(program.symbols().get("t").unwrap()).unwrap();
        assert!(graph.is_recursive(t));
        assert_eq!(
            graph.sccs()[t].len(),
            1,
            "self-recursive pred is its own SCC"
        );
    }

    #[test]
    fn recursive_rules_read_their_head_scc() {
        let (graph, program) = graph_of(
            "e(1).\n\
             r1 1.0: a(X) :- b(X).\n\
             r2 1.0: b(X) :- a(X).\n\
             r3 1.0: a(X) :- e(X).\n\
             r4 1.0: c(X) :- a(X), c(X).\n",
        );
        let recursive: Vec<bool> = program
            .clauses()
            .iter()
            .map(|c| graph.rule_is_recursive(c))
            .collect();
        assert_eq!(recursive, vec![false, true, true, false, true]);
    }

    #[test]
    fn negation_inside_an_scc_is_unstratified() {
        let src =
            "a(x).\nb(x).\ns(X) :- a(X), \\+ b(X).\nw(X) :- a(X), v(X), \\+ w(X).\nv(X) :- w(X).\n";
        let clauses = crate::parser::parse(src).unwrap().clauses;
        let graph = DepGraph::build(&clauses);
        let flagged: Vec<Vec<usize>> = clauses
            .iter()
            .map(|c| graph.unstratified(c).collect())
            .collect();
        assert_eq!(flagged, vec![vec![], vec![], vec![], vec![0], vec![]]);
        assert_eq!(graph.strata(&clauses), Err(3));
    }

    #[test]
    fn strata_climb_one_level_per_negation() {
        let (graph, program) = graph_of(
            "base(x).\n\
             a(X) :- base(X).\n\
             b(X) :- base(X), \\+ a(X).\n\
             c(X) :- b(X), c(X).\n\
             c(X) :- base(X), \\+ b(X).\n",
        );
        let strata = graph.strata(program.clauses()).unwrap();
        let of = |name| strata[graph.scc(program.symbols().get(name).unwrap()).unwrap()];
        assert_eq!([of("base"), of("a"), of("b"), of("c")], [0, 0, 1, 2]);
    }
}
