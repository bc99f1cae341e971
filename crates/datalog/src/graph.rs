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
    /// SCC members, dependencies first: SCC `k` is
    /// `members[scc_bounds[k]..scc_bounds[k + 1]]`.
    members: Vec<usize>,
    scc_bounds: Vec<usize>,
    /// The SCC of each node.
    scc_of: Vec<usize>,
    /// Whether each SCC contains a cycle: more than one member, or a
    /// self-loop.
    recursive: Vec<bool>,
    /// The indices of the rules whose head lies in SCC `k`, in source
    /// order: `rules[rule_bounds[k]..rule_bounds[k + 1]]`.
    rules: Vec<usize>,
    rule_bounds: Vec<usize>,
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
        let id = |v: usize| u32::try_from(v).expect("predicate count fits u32");
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for clause in clauses {
            let head = id(node(clause.head.pred));
            for atom in clause.body().iter().chain(clause.negated()) {
                edges.push((head, id(node(atom.pred))));
            }
        }
        let succ = Csr::from_edges(preds.len(), edges);

        let mut members = Vec::with_capacity(preds.len());
        let mut scc_bounds = vec![0];
        let mut recursive = Vec::new();
        strongly_connected(&succ, |component| {
            members.extend(component.iter().map(|&v| v as usize));
            scc_bounds.push(members.len());
            let v = component[0];
            recursive.push(component.len() > 1 || succ.successors(v as usize).contains(&v));
        });
        let mut scc_of = vec![0; preds.len()];
        for (k, bounds) in scc_bounds.windows(2).enumerate() {
            for &v in &members[bounds[0]..bounds[1]] {
                scc_of[v] = k;
            }
        }
        // Group the rules by head SCC; the sort is stable, so each SCC
        // keeps them in source order.
        let rule_scc = |i: usize| scc_of[index[&clauses[i].head.pred]];
        let mut rules: Vec<usize> = (0..clauses.len())
            .filter(|&i| clauses[i].is_rule())
            .collect();
        rules.sort_by_key(|&i| rule_scc(i));
        let mut rule_bounds = vec![0; recursive.len() + 1];
        for &i in &rules {
            rule_bounds[rule_scc(i) + 1] += 1;
        }
        for k in 1..rule_bounds.len() {
            rule_bounds[k] += rule_bounds[k - 1];
        }
        DepGraph {
            preds,
            index,
            members,
            scc_bounds,
            scc_of,
            recursive,
            rules,
            rule_bounds,
        }
    }

    /// The predicate of node `v`.
    pub fn pred(&self, v: usize) -> Symbol {
        self.preds[v]
    }

    /// Number of SCCs. They are numbered dependencies first: every SCC a
    /// rule body reads comes before the SCC of the rule's head.
    pub fn num_sccs(&self) -> usize {
        self.recursive.len()
    }

    /// The node ids of SCC `k`.
    pub fn members(&self, k: usize) -> &[usize] {
        &self.members[self.scc_bounds[k]..self.scc_bounds[k + 1]]
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
        &self.rules[self.rule_bounds[k]..self.rule_bounds[k + 1]]
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
        let mut strata = vec![0; self.num_sccs()];
        for k in 0..self.num_sccs() {
            // Atoms inside SCC `k` read its still-zero entry: positive ones
            // share the head's stratum and negated ones were rejected above.
            let mut stratum = 0;
            for clause in self.rules(k).iter().map(|&i| &clauses[i]) {
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

/// A directed graph over nodes `0..n` in compressed sparse row (CSR) form:
/// the successors of node `v` are `targets[offsets[v]..offsets[v + 1]]`,
/// so the whole graph is two allocations however many nodes it has.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Csr {
    fn default() -> Self {
        Self::new()
    }
}

impl Csr {
    /// A graph without nodes.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// Builds the graph of `(from, to)` edges over `nodes` nodes. Each node
    /// keeps its successors in edge order, without repeats (the first
    /// occurrence stays).
    pub fn from_edges(nodes: usize, mut edges: Vec<(u32, u32)>) -> Self {
        // Stable: edges from one node keep their order.
        edges.sort_by_key(|&(from, _)| from);
        let mut graph = Self::new();
        // `last_row[w]` is the last row that listed `w` (+1, 0 = none).
        let mut last_row = vec![0usize; nodes];
        let mut rest = &edges[..];
        for v in 0..nodes {
            let len = rest
                .iter()
                .take_while(|&&(from, _)| from as usize == v)
                .count();
            let (row, tail) = rest.split_at(len);
            rest = tail;
            for &(_, w) in row {
                if last_row[w as usize] != v + 1 {
                    last_row[w as usize] = v + 1;
                    graph.targets.push(w);
                }
            }
            graph.close_row();
        }
        debug_assert!(rest.is_empty(), "edge source out of range");
        graph
    }

    /// Appends node `num_nodes()` with successors `successors`.
    pub fn push_node(&mut self, successors: &[u32]) {
        self.targets.extend_from_slice(successors);
        self.close_row();
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.targets.len()).expect("CSR edge count fits u32");
        self.offsets.push(end);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of node `v`.
    #[inline]
    pub fn successors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Strongly connected components of `graph`, by iterative Tarjan.
/// `component` receives each one as a slice of node ids, in the order
/// Tarjan pops them (the component's root last), dependencies first: each
/// component after every component its members point to. Nothing is
/// allocated per node or per component.
pub fn strongly_connected(graph: &Csr, mut component: impl FnMut(&[u32])) {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.num_nodes();
    let mut order = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_order = 0u32;
    // Explicit DFS frames: (node, offset of its next successor to visit).
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for (root, &root_start) in graph.offsets[..n].iter().enumerate() {
        if order[root] != UNVISITED {
            continue;
        }
        frames.push((u32::try_from(root).expect("node id fits u32"), root_start));
        while let Some(&mut (v, ref mut next)) = frames.last_mut() {
            let vi = v as usize;
            if order[vi] == UNVISITED {
                order[vi] = next_order;
                low[vi] = next_order;
                next_order += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if *next < graph.offsets[vi + 1] {
                let w = graph.targets[*next as usize];
                *next += 1;
                let wi = w as usize;
                if order[wi] == UNVISITED {
                    frames.push((w, graph.offsets[wi]));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(order[wi]);
                }
                continue;
            }
            // All successors done: pop the frame, maybe emit an SCC.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                let p = parent as usize;
                low[p] = low[p].min(low[vi]);
            }
            if low[vi] == order[vi] {
                let start = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("an SCC root is on the Tarjan stack");
                for &w in &stack[start..] {
                    on_stack[w as usize] = false;
                }
                stack[start..].reverse();
                component(&stack[start..]);
                stack.truncate(start);
            }
        }
    }
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
        assert_eq!(graph.members(pq).len(), 2);
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
            graph.members(t).len(),
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
