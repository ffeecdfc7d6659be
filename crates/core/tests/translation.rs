//! The §5 translations run through `Engine::prepare` + `Session`,
//! checked against independent oracles: Theorem 5.2 against direct
//! SPARQL evaluation (`triq_sparql::evaluate`), and the paper's regime
//! examples (§2's G3, §5.2's animal graph, inconsistency) against their
//! stated answers.

use std::collections::BTreeSet;
use triq::prelude::*;
use triq::sparql::{GraphPattern, MappingSet};

/// The answers of `pattern` over `graph` under `semantics`, prepared on
/// a fresh engine and executed against a fresh session.
fn answers(graph: &Graph, pattern: &GraphPattern, semantics: Semantics) -> RegimeAnswers {
    let engine = Engine::new();
    let query = engine.prepare((pattern, semantics)).unwrap();
    query.mappings(&engine.load_graph(graph.clone())).unwrap()
}

fn plain(graph: &Graph, pattern: &GraphPattern) -> MappingSet {
    match answers(graph, pattern, Semantics::Plain) {
        RegimeAnswers::Mappings(m) => m,
        RegimeAnswers::Top => panic!("plain translation has no constraints"),
    }
}

/// Theorem 5.2: the translation agrees with direct evaluation.
fn check_equiv(graph: &Graph, pattern_src: &str) {
    let pattern = parse_pattern(pattern_src).unwrap();
    let direct = evaluate_sparql(graph, &pattern);
    assert_eq!(direct, plain(graph, &pattern), "pattern {pattern_src}");
}

fn names(answers: &RegimeAnswers) -> BTreeSet<Symbol> {
    answers
        .mappings()
        .unwrap()
        .iter()
        .filter_map(|m| m.get(VarId::new("X")))
        .collect()
}

fn g2() -> Graph {
    parse_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman name \"Jeffrey Ullman\" .\n\
         dbAho is_coauthor_of dbUllman .\n\
         dbAho name \"Alfred Aho\" .",
    )
    .unwrap()
}

#[test]
fn theorem_5_2_on_paper_examples() {
    let g = g2();
    // Example 5.1's P1, P2 (blank), P3 (OPT), P4 (OPT-AND).
    check_equiv(&g, "{ ?X name ?Y }");
    check_equiv(&g, "{ ?X name _:B }");
    check_equiv(&g, "{ ?X name ?Y } OPTIONAL { ?X phone ?Z }");
    check_equiv(
        &g,
        "{ { ?X name ?Y } OPTIONAL { ?X phone ?Z } } AND { ?Z phone_company ?W }",
    );
    check_equiv(&g, "{ ?Y is_author_of ?Z . ?Y name ?X }");
}

#[test]
fn theorem_5_2_with_opt_binding_asymmetries() {
    let g = parse_turtle(
        "a name \"Alice\" .\n\
         b name \"Bob\" .\n\
         a phone \"123\" .\n\
         \"123\" phone_company ACME .\n\
         \"999\" phone_company Globex .",
    )
    .unwrap();
    check_equiv(&g, "{ ?X name ?Y } OPTIONAL { ?X phone ?Z }");
    check_equiv(
        &g,
        "{ { ?X name ?Y } OPTIONAL { ?X phone ?Z } } AND { ?Z phone_company ?W }",
    );
    check_equiv(&g, "{ ?X name ?Y } UNION { ?X phone ?Z }");
    check_equiv(
        &g,
        "{ { ?X name ?Y } UNION { ?X phone ?Z } } OPTIONAL { ?Z phone_company ?W }",
    );
}

#[test]
fn theorem_5_2_with_filters_and_select() {
    let g = g2();
    check_equiv(&g, "{ ?X name ?N } FILTER (?N = \"Alfred Aho\")");
    check_equiv(&g, "{ SELECT ?X WHERE { ?X name ?N } }");
    check_equiv(
        &g,
        "{ ?X name ?N } OPTIONAL { ?X phone ?Z } FILTER (!bound(?Z))",
    );
    check_equiv(
        &g,
        "{ ?X name ?N } OPTIONAL { ?X phone ?Z } FILTER (bound(?Z))",
    );
}

/// §5.2's running example: the pattern (?X, eats, _:B) over the animal
/// graph — empty under J·K^U, {dog} under J·K^All.
#[test]
fn active_domain_vs_all_semantics() {
    let mut o = Ontology::new();
    o.add(Axiom::ClassAssertion(
        BasicClass::Named(intern("animal")),
        intern("dog"),
    ));
    o.add(Axiom::SubClassOf(
        BasicClass::Named(intern("animal")),
        BasicClass::Some(BasicProperty::Named(intern("eats"))),
    ));
    let g = ontology_to_graph(&o);
    let pattern = parse_pattern("{ ?X eats _:B }").unwrap();
    let u = answers(&g, &pattern, Semantics::RegimeU);
    assert!(
        u.mappings().unwrap().is_empty(),
        "active domain blocks the null witness"
    );
    let all = answers(&g, &pattern, Semantics::RegimeAll);
    let ms = all.mappings().unwrap();
    assert_eq!(ms.len(), 1);
    assert_eq!(
        ms.iter().next().unwrap().get(VarId::new("X")),
        Some(intern("dog"))
    );
    // The workaround the paper describes for J·K^U: type the subject
    // with the restriction class.
    let workaround = parse_pattern("{ ?X rdf:type some~eats }").unwrap();
    let u2 = answers(&g, &workaround, Semantics::RegimeU);
    assert_eq!(u2.mappings().unwrap().len(), 1);
}

/// §2's G3: under the regime, Aho appears in the rewritten author
/// query via the subclass-of-restriction axiom.
#[test]
fn g3_restriction_reasoning() {
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
    // The SPARQL 1.1 style rewritten query of §2 under J·K^U.
    let rewritten = parse_pattern(
        "{ ?Y name ?X . ?Y rdf:type ?Z . ?Z rdf:type owl:Restriction . \
           ?Z owl:onProperty is_author_of . ?Z owl:someValuesFrom owl:Thing }",
    )
    .unwrap();
    let u = names(&answers(&g, &rewritten, Semantics::RegimeU));
    assert!(u.contains(&intern("Alfred Aho")), "{u:?}");
    assert!(u.contains(&intern("Jeffrey Ullman")));
    // With J·K^All, the natural query (with a blank) suffices.
    let natural = parse_pattern("{ ?Y is_author_of _:B . ?Y name ?X }").unwrap();
    let all = names(&answers(&g, &natural, Semantics::RegimeAll));
    assert!(all.contains(&intern("Alfred Aho")));
}

#[test]
fn inconsistent_graph_yields_top() {
    let g = parse_turtle(
        "cat owl:disjointWith dog .\n\
         cat rdf:type owl:Class .\n\
         dog rdf:type owl:Class .\n\
         felix rdf:type cat .\n\
         felix rdf:type dog .",
    )
    .unwrap();
    let pattern = parse_pattern("{ ?X rdf:type cat }").unwrap();
    let u = answers(&g, &pattern, Semantics::RegimeU);
    assert!(matches!(u, RegimeAnswers::Top));
}

// -- Theorem 5.2 on operator nestings ---------------------------------

const G: &str = "a p b .\n b p c .\n a q x .\n x r y .\n c q y .\n y r a .";

fn check(graph_src: &str, pattern_src: &str) {
    check_equiv(&parse_turtle(graph_src).unwrap(), pattern_src);
}

/// Nested OPT: three levels of optional binding produce up to 2^3
/// supra-index variants; all must decode correctly.
#[test]
fn deep_opt_nesting() {
    check(
        G,
        "{ { { ?A p ?B } OPTIONAL { ?B p ?C } } OPTIONAL { ?C q ?D } } \
         OPTIONAL { ?D r ?E }",
    );
}

/// OPT under UNION under OPT — variants flow through every operator.
#[test]
fn bushy_union_opt() {
    check(
        G,
        "{ { ?A p ?B } UNION { { ?A q ?B } OPTIONAL { ?B r ?C } } } \
         OPTIONAL { ?C p ?D }",
    );
}

/// FILTER over partially-bound variants: bound() interacts with the
/// variant machinery (statically resolved per bound-set).
#[test]
fn filter_across_variants() {
    check(
        G,
        "{ { ?A p ?B } OPTIONAL { ?B q ?C } } \
         FILTER (!bound(?C) || ?C = y)",
    );
    check(
        G,
        "{ { ?A p ?B } OPTIONAL { ?B q ?C } } FILTER (bound(?C) && ?A = ?C)",
    );
}

/// SELECT projecting away the join variable of a later AND (the
/// Cartesian-product phenomenon of Example 5.1's P4, but with the
/// projection happening first).
#[test]
fn select_then_join() {
    check(G, "{ SELECT ?B WHERE { ?A p ?B } } AND { ?B p ?C }");
}

/// Empty-answer edge cases: unsatisfiable filter, empty BGP matches.
#[test]
fn empty_results() {
    check(G, "{ ?A p ?B } FILTER (?A = ?B)");
    check(G, "{ ?A nosuchpred ?B }");
    check(G, "{ ?A p ?B . ?B nosuchpred ?C }");
}

/// Zero-variable patterns: a fully-ground BGP behaves like an
/// assertion, answering {µ∅} or ∅.
#[test]
fn ground_bgp() {
    check(G, "{ a p b }");
    check(G, "{ a p c }");
    check(G, "{ a p b } UNION { ?X q ?Y }");
}

/// Blank nodes joining across triples inside one BGP.
#[test]
fn blank_join_in_bgp() {
    check(G, "{ ?A p _:B . _:B q ?C }");
    check(G, "{ _:B p _:C }");
}
