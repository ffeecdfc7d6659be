//! The §2/§5 ontology scenarios: querying under the OWL 2 QL core
//! direct-semantics entailment regime, on the facade.
//!
//! * G3: restriction axioms make every coauthor an author of *something*,
//!   so the regime finds Alfred Aho where plain SPARQL does not.
//! * G4: `owl:sameAs` as an engine-level rule library.
//! * The animal/eats example of §5.2–§5.3: the active-domain restriction
//!   and the J·K^All semantics that lifts it.
//!
//! One pattern is prepared once per semantics and reused across sessions.
//!
//! Run with: `cargo run --example ontology_authors`

use triq::prelude::*;

fn main() -> Result<(), TriqError> {
    let engine = Engine::new();
    let author_pattern = parse_pattern("{ ?Y is_author_of ?Z . ?Y name ?X }")?;
    // The same pattern, prepared once per semantics.
    let authors_plain = engine.prepare((&author_pattern, Semantics::Plain))?;
    let natural = engine.prepare((
        parse_pattern("{ ?Y is_author_of _:B . ?Y name ?X }")?,
        Semantics::RegimeAll,
    ))?;

    // --- G3: restriction reasoning --------------------------------------
    let g3 = engine.load_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman name \"Jeffrey Ullman\" .\n\
         dbAho is_coauthor_of dbUllman .\n\
         dbAho name \"Alfred Aho\" .\n\
         r1 rdf:type owl:Restriction .\n\
         r2 rdf:type owl:Restriction .\n\
         r1 owl:onProperty is_coauthor_of .\n\
         r2 owl:onProperty is_author_of .\n\
         r1 owl:someValuesFrom owl:Thing .\n\
         r2 owl:someValuesFrom owl:Thing .\n\
         r1 rdfs:subClassOf r2 .",
    )?;
    println!("G3, plain SPARQL (no reasoning):");
    for n in authors_plain.bindings_of(&g3, "X")? {
        println!("  {n}");
    }
    // Under J.K^All the natural blank-node query finds Aho: the regime
    // invents the publication he must have authored.
    println!("G3, entailment regime without active-domain restriction:");
    for n in natural.bindings_of(&g3, "X")? {
        println!("  {n}");
    }

    // --- G4: owl:sameAs --------------------------------------------------
    let g4 = parse_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman owl:sameAs yagoUllman .\n\
         yagoUllman name \"Jeffrey Ullman\" .",
    )?;
    // Plain semantics: materialize the closure into the graph up front.
    let materialized = engine.load_graph(materialize_same_as(&g4)?);
    println!("G4 with the owl:sameAs closure materialized:");
    for n in authors_plain.bindings_of(&materialized, "X")? {
        println!("  {n}");
    }
    // Regime semantics: attach the §2 library to the engine instead; it is
    // unioned into every program at prepare time.
    let lib_engine = Engine::builder()
        .library(same_as_regime_library())
        .default_semantics(Semantics::RegimeU)
        .build();
    let authors_regime = lib_engine.prepare(&author_pattern)?;
    println!("G4 with the owl:sameAs rule library under J.K^U:");
    for n in authors_regime.bindings_of(&lib_engine.load_graph(g4), "X")? {
        println!("  {n}");
    }

    // --- §5.2: dogs eat something ----------------------------------------
    let mut animals = Ontology::new();
    animals.add(Axiom::ClassAssertion(
        BasicClass::Named(intern("animal")),
        intern("dog"),
    ));
    animals.add(Axiom::SubClassOf(
        BasicClass::Named(intern("animal")),
        BasicClass::Some(BasicProperty::Named(intern("eats"))),
    ));
    // §5.3: herbivores — everything eaten is plant material.
    animals.add(Axiom::SubClassOf(
        BasicClass::Some(BasicProperty::Inverse(intern("eats"))),
        BasicClass::Named(intern("plant_material")),
    ));
    let zoo = engine.load_graph(ontology_to_graph(&animals));

    let eats_pattern = parse_pattern("{ ?X eats _:B }")?;
    let eats_u = engine.prepare((&eats_pattern, Semantics::RegimeU))?;
    let eats_all = engine.prepare((&eats_pattern, Semantics::RegimeAll))?;
    let u = eats_u.bindings_of(&zoo, "X")?;
    println!(
        "\nWho eats something (active-domain semantics)? {u:?} (empty: the witness is a null)"
    );
    let all = eats_all.bindings_of(&zoo, "X")?;
    println!("Who eats something (J.K^All)? {all:?}");

    // §5.3's query Q: animals eating some plant material — provable only
    // through the ontology, without a concrete witness.
    let q = engine.prepare((
        parse_pattern("{ ?X eats _:B . _:B rdf:type plant_material }")?,
        Semantics::RegimeAll,
    ))?;
    let all = q.bindings_of(&zoo, "X")?;
    println!("Who eats plant material (J.K^All)? {all:?}");
    Ok(())
}
