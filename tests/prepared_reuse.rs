//! Prepared-query reuse: one `PreparedQuery`, built once, must agree with
//! a one-shot evaluation (the same pattern prepared on a fresh engine for
//! each graph) on every graph it is executed against, under all three
//! semantics of §3.1 / §5.2 / §5.3 (plain, J·K^U, J·K^All), on the §2/§5
//! paper examples — and with the independent oracles: direct SPARQL
//! evaluation for plain semantics, plain evaluation over the saturated
//! graph for J·K^U.

use triq::owl2ql::saturate;
use triq::prelude::*;
use triq::sparql::{GraphPattern, MappingSet};

/// G1 of §2.
fn g1() -> Graph {
    parse_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman name \"Jeffrey Ullman\" .",
    )
    .unwrap()
}

/// G2 of §2: G1 plus Aho the coauthor.
fn g2() -> Graph {
    let mut g = g1();
    g.insert_strs("dbAho", "is_coauthor_of", "dbUllman");
    g.insert_strs("dbAho", "name", "Alfred Aho");
    g
}

/// G3 of §2: G2 plus the restriction axioms making coauthors authors.
fn g3() -> Graph {
    let mut g = g2();
    for (s, p, o) in [
        ("r1", "rdf:type", "owl:Restriction"),
        ("r2", "rdf:type", "owl:Restriction"),
        ("r1", "owl:onProperty", "is_coauthor_of"),
        ("r2", "owl:onProperty", "is_author_of"),
        ("r1", "owl:someValuesFrom", "owl:Thing"),
        ("r2", "owl:someValuesFrom", "owl:Thing"),
        ("r1", "rdfs:subClassOf", "r2"),
    ] {
        g.insert_strs(s, p, o);
    }
    g
}

/// The §5.2 animal graph.
fn animal_graph() -> Graph {
    let mut o = Ontology::new();
    o.add(Axiom::ClassAssertion(
        BasicClass::Named(intern("animal")),
        intern("dog"),
    ));
    o.add(Axiom::SubClassOf(
        BasicClass::Named(intern("animal")),
        BasicClass::Some(BasicProperty::Named(intern("eats"))),
    ));
    ontology_to_graph(&o)
}

fn graphs() -> Vec<Graph> {
    vec![g1(), g2(), g3(), animal_graph(), Graph::new()]
}

/// The one-shot path: `pattern` prepared on a fresh engine and executed
/// once against a fresh session over `graph`.
fn one_shot(graph: &Graph, pattern: &GraphPattern, semantics: Semantics) -> RegimeAnswers {
    let engine = Engine::new();
    let query = engine.prepare((pattern, semantics)).unwrap();
    query.mappings(&engine.load_graph(graph.clone())).unwrap()
}

/// One prepared plain-semantics query vs the one-shot path and direct
/// SPARQL evaluation, on five graphs.
#[test]
fn prepared_plain_agrees_with_one_shot_on_many_graphs() {
    let engine = Engine::new();
    for src in [
        "{ ?Y is_author_of ?Z . ?Y name ?X }",
        "{ ?X name ?Y } OPTIONAL { ?X is_coauthor_of ?Z }",
        "{ ?X name ?Y } UNION { ?X eats ?Y }",
    ] {
        let pattern = parse_pattern(src).unwrap();
        let prepared = engine.prepare((&pattern, Semantics::Plain)).unwrap();
        for (i, graph) in graphs().into_iter().enumerate() {
            let one_shot: MappingSet = one_shot(&graph, &pattern, Semantics::Plain)
                .mappings()
                .unwrap()
                .clone();
            assert_eq!(
                one_shot,
                evaluate_sparql(&graph, &pattern),
                "Theorem 5.2, pattern {src}, graph #{i}"
            );
            let session = engine.load_graph(graph);
            let via_prepared = prepared.mappings(&session).unwrap();
            assert_eq!(
                via_prepared.mappings().unwrap(),
                &one_shot,
                "pattern {src}, graph #{i}"
            );
        }
    }
}

/// One prepared query per regime semantics vs the one-shot path (and
/// J·K^U vs the saturation reference), on five graphs.
#[test]
fn prepared_regimes_agree_with_one_shot_on_many_graphs() {
    let engine = Engine::new();
    for src in [
        "{ ?Y is_author_of _:B . ?Y name ?X }",
        "{ ?X eats _:B }",
        "{ ?X rdf:type some~eats }",
    ] {
        let pattern = parse_pattern(src).unwrap();
        let prepared_u = engine.prepare((&pattern, Semantics::RegimeU)).unwrap();
        let prepared_all = engine.prepare((&pattern, Semantics::RegimeAll)).unwrap();
        for (i, graph) in graphs().into_iter().enumerate() {
            let u_one_shot = one_shot(&graph, &pattern, Semantics::RegimeU);
            let all_one_shot = one_shot(&graph, &pattern, Semantics::RegimeAll);
            assert_eq!(
                u_one_shot.mappings().unwrap(),
                &evaluate_sparql(&saturate(&graph).unwrap(), &pattern),
                "Theorem 5.3, pattern {src}, graph #{i}"
            );
            let session = engine.load_graph(graph);
            assert_eq!(
                prepared_u.mappings(&session).unwrap(),
                u_one_shot,
                "J·K^U, pattern {src}, graph #{i}"
            );
            assert_eq!(
                prepared_all.mappings(&session).unwrap(),
                all_one_shot,
                "J·K^All, pattern {src}, graph #{i}"
            );
        }
    }
}

/// A prepared TriQ-Lite 1.0 rule program vs `TriqLiteQuery::evaluate_on_graph`
/// on several graphs, materialized and streamed.
#[test]
fn prepared_rules_agree_with_triq_lite_one_shot() {
    let engine = Engine::new();
    let src = "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).";
    let prepared = engine.prepare(Datalog(src, "query")).unwrap();
    let one_shot = TriqLiteQuery::new(parse_program(src).unwrap(), "query").unwrap();
    for (i, graph) in graphs().into_iter().enumerate() {
        let expected = one_shot.evaluate_on_graph(&graph).unwrap();
        let session = engine.load_graph(graph);
        let got = prepared.execute(&session).unwrap();
        assert_eq!(got, expected, "graph #{i}");
        // The streaming path yields exactly the same tuples.
        let mut streamed: Vec<Vec<Symbol>> = prepared.execute_iter(&session).unwrap().collect();
        streamed.sort();
        let materialized: Vec<Vec<Symbol>> = expected.tuples().iter().cloned().collect();
        assert_eq!(streamed, materialized, "graph #{i} (streamed)");
    }
}

/// Demand cache keys: two prepared queries over the *same* rule set
/// differing only in their bound constants must not collide — each gets
/// its own demand rewrite (the constants live in the rewritten program's
/// seed rules, so the durable fingerprints differ) and its own cached
/// view, and executing both against one session serves each query its
/// own answers.
#[test]
fn demand_plans_differing_only_in_constants_do_not_collide() {
    let rules = |start: &str| {
        format!(
            "e(?X, ?Y) -> t(?X, ?Y).\n t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
             t({start}, ?Y) -> query(?Y)."
        )
    };
    let engine = Engine::new();
    let from_a = engine.prepare(Datalog(&rules("a0"), "query")).unwrap();
    let from_b = engine.prepare(Datalog(&rules("b0"), "query")).unwrap();
    assert!(from_a.uses_demand() && from_b.uses_demand());
    assert_ne!(
        from_a.demand_fingerprint(),
        from_b.demand_fingerprint(),
        "bound constants must reach the demand plan's durable identity"
    );
    let mut session = engine.session();
    // Two disjoint chains: a0→a1→a2 and b0→b1→b2→b3.
    for i in 0..2 {
        session.add_fact("e", &[&format!("a{i}"), &format!("a{}", i + 1)]);
    }
    for i in 0..3 {
        session.add_fact("e", &[&format!("b{i}"), &format!("b{}", i + 1)]);
    }
    // Interleave executions both ways: each plan must keep serving its
    // own component, from its own cached view.
    for _ in 0..2 {
        let a = from_a.execute(&session).unwrap();
        let b = from_b.execute(&session).unwrap();
        assert_eq!(a.len(), 2, "a0 reaches a1, a2");
        assert_eq!(b.len(), 3, "b0 reaches b1, b2, b3");
        assert!(a.contains(&["a2"]) && !a.contains(&["b1"]));
        assert!(b.contains(&["b3"]) && !b.contains(&["a1"]));
    }
    // Mutations delta-sync both demand views without crosstalk.
    let mut session = session;
    session.add_fact("e", &["a2", "a3"]);
    assert_eq!(from_a.execute(&session).unwrap().len(), 3);
    assert_eq!(from_b.execute(&session).unwrap().len(), 3);
}

/// Sessions are independent: executing a prepared query on one session
/// does not leak state into another.
#[test]
fn sessions_are_isolated() {
    let engine = Engine::new();
    let prepared = engine
        .prepare(Datalog("triple(?X, name, ?N) -> named(?X).", "named"))
        .unwrap();
    let s1 = engine.load_graph(g2());
    let s2 = engine.load_graph(g1());
    let mut s3 = engine.load_graph(g1());
    assert_eq!(prepared.execute(&s1).unwrap().len(), 2);
    assert_eq!(prepared.execute(&s2).unwrap().len(), 1);
    // Mutating s3 changes s3 only.
    s3.insert_triple("x", "name", "X");
    assert_eq!(prepared.execute(&s3).unwrap().len(), 2);
    assert_eq!(prepared.execute(&s2).unwrap().len(), 1);
}
