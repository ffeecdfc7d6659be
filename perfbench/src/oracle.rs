//! Expected answers, computed apart from the serving path: a BFS over
//! the edge list for the closure queries, `triq_sparql::evaluate` for
//! plain SPARQL, and the saturation oracle (`EntailmentOracle`) for the
//! entailment regimes.

use std::collections::{BTreeSet, HashMap, VecDeque};
use triq::owl2ql::{triple1_pred, EntailmentOracle};
use triq::prelude::*;
use triq::sparql::{GraphPattern, MappingSet, SelectQuery};

/// An answer set: rows of optional cell strings, order-free.
pub type Rows = BTreeSet<Vec<Option<String>>>;

/// The closure `t` of the `e` edges from `start` (what the TC library
/// derives), by breadth-first search.
pub fn reachable(edges: &HashMap<String, Vec<String>>, start: &str) -> Rows {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&str> = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        for m in edges.get(n).into_iter().flatten() {
            if seen.insert(m) {
                queue.push_back(m);
            }
        }
    }
    seen.into_iter()
        .map(|n| vec![Some(n.to_string())])
        .collect()
}

pub fn edge_map<'a>(
    triples: impl Iterator<Item = &'a [String; 3]>,
) -> HashMap<String, Vec<String>> {
    let mut edges: HashMap<String, Vec<String>> = HashMap::new();
    for [s, p, o] in triples {
        if p == "e" {
            edges.entry(s.clone()).or_default().push(o.clone());
        }
    }
    edges
}

fn graph_of<'a>(triples: impl Iterator<Item = &'a [String; 3]>) -> Graph {
    let mut g = Graph::new();
    for [s, p, o] in triples {
        g.insert_strs(s, p, o);
    }
    g
}

fn rows_of(select: &SelectQuery, ms: &MappingSet) -> Rows {
    ms.iter()
        .map(|m| {
            select
                .vars
                .iter()
                .map(|v| m.get(*v).map(|s| s.as_str().to_string()))
                .collect()
        })
        .collect()
}

/// The answers of `query` under `regime` over `triples`. Plain queries
/// go through the reference SPARQL evaluator; `ku` evaluates the
/// pattern over the constant part of the saturation, `kall` over the
/// whole universal model (nulls included), keeping only mappings whose
/// projected variables are constants.
pub fn regime_answers(
    triples: &[[String; 3]],
    queries: &[crate::gen::Query],
) -> Result<Vec<Rows>, TriqError> {
    let graph = graph_of(triples.iter());
    let oracle = EntailmentOracle::new(&graph)?;
    if !oracle.is_consistent() {
        return Err(TriqError::Other("benchmark graph is inconsistent".into()));
    }
    let mut saturated = Graph::new();
    let mut model = Graph::new();
    let mut nulls: BTreeSet<Symbol> = BTreeSet::new();
    let name = |term: Term, nulls: &mut BTreeSet<Symbol>| match term.as_const() {
        Some(c) => c,
        None => {
            let n = intern(&format!("_:null{term:?}"));
            nulls.insert(n);
            n
        }
    };
    for atom in oracle.outcome().instance.atoms_of(triple1_pred()) {
        let [s, p, o] = [atom.terms[0], atom.terms[1], atom.terms[2]];
        if let (Some(s), Some(p), Some(o)) = (s.as_const(), p.as_const(), o.as_const()) {
            saturated.insert(Triple::new(s, p, o));
        }
        let (s, p, o) = (
            name(s, &mut nulls),
            name(p, &mut nulls),
            name(o, &mut nulls),
        );
        model.insert(Triple::new(s, p, o));
    }
    queries
        .iter()
        .map(|q| {
            let select = parse_select(&q.text)?;
            let pattern =
                GraphPattern::Select(select.vars.clone(), Box::new(select.pattern.clone()));
            Ok(match q.regime {
                "plain" => rows_of(&select, &triq::sparql::evaluate(&graph, &pattern)),
                "ku" => rows_of(&select, &triq::sparql::evaluate(&saturated, &pattern)),
                _ => {
                    let all = triq::sparql::evaluate(&model, &pattern);
                    let mut rows = rows_of(&select, &all);
                    rows.retain(|r| r.iter().flatten().all(|c| !nulls.contains(&intern(c))));
                    rows
                }
            })
        })
        .collect()
}
