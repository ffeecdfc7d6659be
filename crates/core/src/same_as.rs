//! The §2 `owl:sameAs` helpers: a rule library that closes `triple1`
//! under `owl:sameAs` for the entailment regimes (install it with
//! [`EngineBuilder::library`](crate::EngineBuilder::library)), and a
//! graph rewrite that materializes the closure for plain semantics.
//!
//! ```
//! use triq::prelude::*;
//!
//! let g4 = parse_turtle(
//!     "dbUllman is_author_of \"The Complete Book\" .\n\
//!      dbUllman owl:sameAs yagoUllman .\n\
//!      yagoUllman name \"Jeffrey Ullman\" .",
//! )?;
//! let engine = Engine::new();
//! let q = engine.prepare(Sparql("SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }"))?;
//! let session = engine.load_graph(materialize_same_as(&g4)?);
//! assert_eq!(q.bindings_of(&session, "X")?[0].as_str(), "Jeffrey Ullman");
//! # Ok::<(), TriqError>(())
//! ```

use triq_common::Result;
use triq_datalog::{ChaseConfig, Program};
use triq_owl2ql::tau_db;
use triq_rdf::Graph;

/// The §2 `owl:sameAs` rule library: symmetry, transitivity and
/// substitution in subject/object positions. The library closes `triple1`
/// (the saturated predicate used by the regimes); for plain semantics,
/// materialize the closure into the graph with [`materialize_same_as`]
/// instead.
pub fn same_as_regime_library() -> Program {
    triq_datalog::parse_program(
        "triple1(?X, owl:sameAs, ?Y) -> triple1(?Y, owl:sameAs, ?X).\n\
         triple1(?X, owl:sameAs, ?Y), triple1(?Y, owl:sameAs, ?Z) -> \
            triple1(?X, owl:sameAs, ?Z).\n\
         triple1(?X1, owl:sameAs, ?X2), triple1(?X1, ?U, ?Y) -> triple1(?X2, ?U, ?Y).\n\
         triple1(?X1, owl:sameAs, ?X2), triple1(?Y, ?U, ?X1) -> triple1(?Y, ?U, ?X2).",
    )
    .expect("sameAs library is well-formed")
}

/// Materializes the `owl:sameAs` closure into a copy of `graph`, for
/// plain semantics: plain patterns match the extensional `triple`
/// relation, which a rule library cannot extend without recursion
/// through the database, so the closure (symmetry, transitivity and
/// substitution in subject/object positions) is chased once and written
/// back as triples.
pub fn materialize_same_as(graph: &Graph) -> Result<Graph> {
    let program = triq_datalog::parse_program(
        "triple(?X, owl:sameAs, ?Y) -> same(?X, ?Y).\n\
         same(?X, ?Y) -> same(?Y, ?X).\n\
         same(?X, ?Y), same(?Y, ?Z) -> same(?X, ?Z).\n\
         triple(?S, ?P, ?O) -> closed(?S, ?P, ?O).\n\
         closed(?S, ?P, ?O), same(?S, ?S2) -> closed(?S2, ?P, ?O).\n\
         closed(?S, ?P, ?O), same(?O, ?O2) -> closed(?S, ?P, ?O2).",
    )
    .expect("sameAs materialization program is well-formed");
    let outcome = triq_datalog::chase(&tau_db(graph), &program, ChaseConfig::default())?;
    let mut out = graph.clone();
    for atom in outcome.instance.atoms_of(triq_common::intern("closed")) {
        if let (Some(s), Some(p), Some(o)) = (
            atom.terms[0].as_const(),
            atom.terms[1].as_const(),
            atom.terms[2].as_const(),
        ) {
            out.insert(triq_rdf::Triple::new(s, p, o));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Engine, Semantics};
    use triq_rdf::parse_turtle;
    use triq_sparql::{parse_pattern, GraphPattern, MappingSet};
    use triq_translate::RegimeAnswers;

    fn g4() -> Graph {
        parse_turtle(
            "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman owl:sameAs yagoUllman .\n\
             yagoUllman name \"Jeffrey Ullman\" .",
        )
        .unwrap()
    }

    fn author_pattern() -> GraphPattern {
        parse_pattern("{ ?Y is_author_of ?Z . ?Y name ?X }").unwrap()
    }

    /// Plain-semantics mappings of `pattern` over `graph`, through a
    /// prepared query and a session.
    fn plain(engine: &Engine, graph: Graph, pattern: &GraphPattern) -> MappingSet {
        let q = engine.prepare((pattern, Semantics::Plain)).unwrap();
        match q.mappings(&engine.load_graph(graph)).unwrap() {
            RegimeAnswers::Mappings(m) => m,
            RegimeAnswers::Top => panic!("plain semantics has no ⊤"),
        }
    }

    /// §2's G4: retrieving authors through owl:sameAs.
    #[test]
    fn g4_same_as_materialization() {
        let engine = Engine::new();
        let pattern = author_pattern();
        // Without the library: empty (as §2 observes).
        assert!(plain(&engine, g4(), &pattern).is_empty());
        // With materialized sameAs closure: Ullman is found.
        let q = engine.prepare((&pattern, Semantics::Plain)).unwrap();
        let session = engine.load_graph(materialize_same_as(&g4()).unwrap());
        let names = q.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }

    /// The same effect via the regime library on triple1.
    #[test]
    fn g4_same_as_regime_library() {
        let engine = Engine::builder().library(same_as_regime_library()).build();
        let q = engine
            .prepare((&author_pattern(), Semantics::RegimeU))
            .unwrap();
        let names = q.bindings_of(&engine.load_graph(g4()), "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }

    #[test]
    fn plain_engine_matches_sparql_eval() {
        let g = parse_turtle(
            "a name \"Alice\" .\n\
             b name \"Bob\" .\n\
             a phone \"123\" .",
        )
        .unwrap();
        let pattern = parse_pattern("{ ?X name ?Y } OPTIONAL { ?X phone ?Z }").unwrap();
        assert_eq!(
            plain(&Engine::new(), g.clone(), &pattern),
            triq_sparql::evaluate(&g, &pattern)
        );
    }
}
