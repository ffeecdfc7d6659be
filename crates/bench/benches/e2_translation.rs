//! E2 — Theorem 5.2: translation overhead — direct SPARQL evaluation vs
//! translate-to-Datalog + chase + decode, on the paper's pattern shapes.
//!
//! Three flavors per pattern, all through the `Engine` facade:
//!
//! * `direct/…` — the in-memory SPARQL algebra evaluator (the oracle);
//! * `one_shot/…` — `prepare` + `mappings` per iteration, i.e. the full
//!   translate → classify → stratify → compile → chase → decode pipeline;
//! * `prepared/…` — `mappings` on a query prepared once (translation
//!   amortized away; the session's maintained view serves repeats).

use criterion::{criterion_group, criterion_main, Criterion};
use triq::prelude::*;
use triq::rdf::random_graph;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_translation");
    group.sample_size(20);
    let graph = random_graph(30, 300, &["p", "q", "r", "name"], 5);
    let patterns = [
        ("bgp", "{ ?Y p ?Z . ?Y q ?X }"),
        ("opt", "{ ?X p ?Y } OPTIONAL { ?X q ?Z }"),
        (
            "union_opt",
            "{ { ?X p ?Y } UNION { ?X q ?Y } } OPTIONAL { ?Y r ?W }",
        ),
        ("filter", "{ ?X p ?Y } FILTER (?X = ?Y || !bound(?X))"),
    ];
    for (name, src) in patterns {
        let pattern = parse_pattern(src).unwrap();
        group.bench_function(format!("direct/{name}"), |b| {
            b.iter(|| evaluate_sparql(&graph, &pattern).len())
        });
        let engine = Engine::new();
        let session = engine.load_graph(graph.clone());
        group.bench_function(format!("one_shot/{name}"), |b| {
            b.iter(|| {
                let fresh = engine.load_graph(graph.clone());
                engine
                    .prepare((&pattern, Semantics::Plain))
                    .unwrap()
                    .mappings(&fresh)
                    .unwrap()
            })
        });
        let prepared = engine.prepare((&pattern, Semantics::Plain)).unwrap();
        group.bench_function(format!("prepared/{name}"), |b| {
            b.iter(|| prepared.mappings(&session).unwrap())
        });
        // Translation alone (program construction).
        group.bench_function(format!("translate_only/{name}"), |b| {
            b.iter(|| translate_pattern(&pattern).unwrap().program.rules.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
