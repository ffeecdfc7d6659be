//! End-to-end integration tests reproducing the worked examples of the
//! paper, spanning every crate of the workspace.

use triq::prelude::*;

fn g1() -> Graph {
    parse_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman name \"Jeffrey Ullman\" .",
    )
    .unwrap()
}

fn g2() -> Graph {
    let mut g = g1();
    g.insert_strs("dbAho", "is_coauthor_of", "dbUllman");
    g.insert_strs("dbAho", "name", "Alfred Aho");
    g
}

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

/// §2 query (1) over G1, in SPARQL and as the rule (2).
#[test]
fn section_2_queries_1_and_2() {
    let g = g1();
    let select = parse_select("SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }").unwrap();
    let names = select.bindings_of(&g, "X");
    assert_eq!(names.len(), 1);
    assert_eq!(names[0].as_str(), "Jeffrey Ullman");

    let rules =
        parse_program("triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).").unwrap();
    let q = TriqLiteQuery::new(rules, "query").unwrap();
    let ans = q.evaluate_on_graph(&g).unwrap();
    assert!(ans.contains(&["Jeffrey Ullman"]));
}

/// §2 query (3): CONSTRUCT vs the rule version produce the same triples.
#[test]
fn section_2_construct_vs_rule() {
    let g = g1();
    let construct = parse_construct(
        "CONSTRUCT { ?X name_author ?Z } WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
    )
    .unwrap();
    let out = construct.evaluate(&g);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Triple::from_strs(
        "Jeffrey Ullman",
        "name_author",
        "The Complete Book"
    )));
}

/// §2: CONSTRUCT is not recursive — rule (3)'s output cannot feed itself.
#[test]
fn section_2_construct_is_not_recursive() {
    let g = g1();
    let rules = parse_program(
        "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> \
            out(?X, name_author, ?Z).",
    )
    .unwrap();
    let db = tau_db(&g);
    let outcome = triq::datalog::chase(&db, &rules, ChaseConfig::default()).unwrap();
    // Exactly one derived atom; it does not re-enter `triple`.
    assert_eq!(outcome.stats.derived, 1);
}

/// §2 query (4) + §3: blank nodes in CONSTRUCT are per-match; the rule
/// version shares the invented null between the two head atoms.
#[test]
fn section_2_coauthor_existential() {
    let g = g2();
    let rules = parse_program(
        "triple(?X, is_coauthor_of, ?Y) -> exists ?Z \
            authored(?X, ?Z), authored(?Y, ?Z).",
    )
    .unwrap();
    let db = tau_db(&g);
    let outcome = triq::datalog::chase(&db, &rules, ChaseConfig::default()).unwrap();
    assert_eq!(outcome.stats.nulls, 1);
    let authored: Vec<_> = outcome.instance.atoms_of(intern("authored")).collect();
    assert_eq!(authored.len(), 2);
    assert_eq!(authored[0].terms[1], authored[1].terms[1]);
}

/// §2: G3's ontology triples make dbAho an author under the regime.
#[test]
fn section_2_g3_regime() {
    let engine = Engine::new();
    let session = engine.load_graph(g3());
    let natural = parse_pattern("{ ?Y is_author_of _:B . ?Y name ?X }").unwrap();
    let regime_all = engine.prepare((&natural, Semantics::RegimeAll)).unwrap();
    let names = regime_all.bindings_of(&session, "X").unwrap();
    let mut names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    names.sort();
    assert_eq!(names, vec!["Alfred Aho", "Jeffrey Ullman"]);
    // Plain semantics misses Aho (the paper's motivating failure).
    let plain = engine.prepare((&natural, Semantics::Plain)).unwrap();
    assert_eq!(plain.bindings_of(&session, "X").unwrap().len(), 1);
}

/// §2: G4 and owl:sameAs.
#[test]
fn section_2_g4_same_as() {
    let g4 = parse_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman owl:sameAs yagoUllman .\n\
         yagoUllman name \"Jeffrey Ullman\" .",
    )
    .unwrap();
    let pattern = parse_pattern("{ ?Y is_author_of ?Z . ?Y name ?X }").unwrap();
    // Query (1) fails on G4…
    assert!(evaluate_sparql(&g4, &pattern).is_empty());
    // …query (6)'s UNION workaround succeeds…
    let union = parse_pattern(
        "{ ?Y is_author_of ?Z . ?Y name ?X } UNION \
         { ?Y is_author_of ?Z . ?Y owl:sameAs ?W . ?W name ?X }",
    )
    .unwrap();
    assert_eq!(evaluate_sparql(&g4, &union).len(), 1);
    // …and the fixed rule library makes query (1) itself work (two
    // mappings: ?Y ranges over both equivalent URIs).
    let closed = materialize_same_as(&g4).unwrap();
    let result = evaluate_sparql(&closed, &pattern);
    assert!(!result.is_empty());
    for m in &result {
        assert_eq!(m.get(VarId::new("X")).unwrap().as_str(), "Jeffrey Ullman");
    }
}

/// §2 closing scenario: the transport query over the generated network.
#[test]
fn section_2_transport() {
    let q = triq::datalog::builders::transport_query();
    let g = triq::rdf::transport_graph(triq::rdf::TransportSpec {
        cities: 10,
        operators: 3,
        part_of_depth: 4,
    });
    let ans = q.evaluate(&tau_db(&g)).unwrap();
    assert!(ans.contains(&["city0", "city9"]));
    assert_eq!(ans.len(), 45); // all ordered pairs along the line
}

/// §5.2's animal example, end to end through the engine.
#[test]
fn section_5_animal_example() {
    let mut o = Ontology::new();
    o.add(Axiom::ClassAssertion(
        BasicClass::Named(intern("animal")),
        intern("dog"),
    ));
    o.add(Axiom::SubClassOf(
        BasicClass::Named(intern("animal")),
        BasicClass::Some(BasicProperty::Named(intern("eats"))),
    ));
    let engine = Engine::new();
    let session = engine.load_graph(ontology_to_graph(&o));
    let eats = parse_pattern("{ ?X eats _:B }").unwrap();
    let eats_u = engine.prepare((&eats, Semantics::RegimeU)).unwrap();
    assert!(eats_u.bindings_of(&session, "X").unwrap().is_empty());
    let workaround = engine
        .prepare((
            parse_pattern("{ ?X rdf:type some~eats }").unwrap(),
            Semantics::RegimeU,
        ))
        .unwrap();
    assert_eq!(
        workaround.bindings_of(&session, "X").unwrap(),
        vec![intern("dog")]
    );
    let eats_all = engine.prepare((&eats, Semantics::RegimeAll)).unwrap();
    assert_eq!(
        eats_all.bindings_of(&session, "X").unwrap(),
        vec![intern("dog")]
    );
}

/// §5.3: the herbivore query needs reasoning through ∃eats⁻ ⊑
/// plant_material with no concrete witness.
#[test]
fn section_5_3_herbivores() {
    let mut o = Ontology::new();
    let eats = BasicProperty::Named(intern("eats"));
    o.add(Axiom::ClassAssertion(
        BasicClass::Named(intern("animal")),
        intern("dog"),
    ));
    o.add(Axiom::SubClassOf(
        BasicClass::Named(intern("animal")),
        BasicClass::Some(eats),
    ));
    o.add(Axiom::SubClassOf(
        BasicClass::Some(eats.inverse()),
        BasicClass::Named(intern("plant_material")),
    ));
    let engine = Engine::new();
    let session = engine.load_graph(ontology_to_graph(&o));
    let q = parse_pattern("{ ?X eats _:B . _:B rdf:type plant_material }").unwrap();
    // Active domain: no witness in G.
    let q_u = engine.prepare((&q, Semantics::RegimeU)).unwrap();
    assert!(q_u.bindings_of(&session, "X").unwrap().is_empty());
    // J·K^All: dog qualifies via the invented meal.
    let q_all = engine.prepare((&q, Semantics::RegimeAll)).unwrap();
    assert_eq!(
        q_all.bindings_of(&session, "X").unwrap(),
        vec![intern("dog")]
    );
}

/// Example 4.1's program classification, via the public API.
#[test]
fn example_4_1_is_triq_but_not_weakly_guarded() {
    let p = parse_program(
        "p(?X, ?Y), s(?Y, ?Z) -> exists ?W t(?Y, ?X, ?W).\n\
         t(?X, ?Y, ?Z) -> exists ?W p(?W, ?Z).\n\
         t(?X, ?Y, ?Z) -> s(?X, ?Y).\n\
         t(?X, ?Y, ?Z) -> out(?X).",
    )
    .unwrap();
    let c = classify_program(&p);
    assert!(c.weakly_frontier_guarded && !c.weakly_guarded);
    assert!(TriqQuery::new(p, "out").is_ok());
}
