//! The traced run's per-layer figures. Counters and phase histograms
//! come from the serving child (`GET /stats`, `GET /metrics`, read at
//! the start and end of the measured phase); call timings come from an
//! in-process replay of the same inputs in which this file times the
//! calls into each crate's public functions.

use crate::gen::{turtle, WriteOp};
use crate::net::{Conn, J};
use crate::workload::{median, quantile, Bench, Run};
use crate::Metric;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use triq::obs::Telemetry;
use triq::prelude::*;
use triq_persist::{PersistConfig, Persistence};
use triq_server::{
    parse_update_text, Handler, QueryService, Request, Response, Server, ServerControl,
    ServiceConfig,
};

/// Wraps the query service and records the time spent inside
/// `Handler::handle` for every request.
struct TimedHandler {
    inner: Arc<QueryService>,
    handle_ms: Mutex<Vec<f64>>,
}

impl Handler for TimedHandler {
    fn handle(&self, req: &Request, ctl: &ServerControl) -> Response {
        let t = Instant::now();
        let resp = self.inner.handle(req, ctl);
        self.handle_ms
            .lock()
            .expect("timings poisoned")
            .push(t.elapsed().as_secs_f64() * 1e3);
        resp
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `after - before` of a numeric `/stats` member, summed over the
/// measured phases.
fn delta(run: &Run, path: &str) -> f64 {
    let get = |j: &J| j.at(path).and_then(J::num).unwrap_or(0.0);
    run.stats.iter().map(|(a, b)| get(b) - get(a)).sum()
}

/// Cumulative `le` buckets of one histogram family in a `/metrics` text.
fn buckets(text: &str, family: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// The median of the observations a histogram gained between the two
/// scrapes of each measured phase, interpolated inside its log2 bucket
/// (0 when none).
fn hist_p50(run: &Run, family: &str) -> f64 {
    let mut after: Vec<(f64, f64)> = Vec::new();
    for (a, b) in &run.metrics {
        let before = buckets(a, family);
        let cum_before = |le: f64| {
            before
                .iter()
                .filter(|(l, _)| *l <= le)
                .map(|(_, c)| *c)
                .fold(0.0, f64::max)
        };
        for (i, (le, c)) in buckets(b, family).into_iter().enumerate() {
            let gained = c - cum_before(le);
            match after.get_mut(i) {
                Some(slot) => slot.1 += gained,
                None => after.push((le, gained)),
            }
        }
    }
    let total = after.last().map_or(0.0, |(_, c)| *c);
    if total == 0.0 {
        return 0.0;
    }
    let target = (total / 2.0).ceil().max(1.0);
    let mut prev = (0.0, 0.0);
    for &(le, cum) in &after {
        if cum >= target {
            let hi = if le.is_finite() { le } else { prev.0 * 2.0 };
            let lo = if prev.0 == 0.0 { 0.0 } else { prev.0 };
            let frac = (target - prev.1) / (cum - prev.1).max(1.0);
            return lo + (hi - lo) * frac;
        }
        prev = (le, cum);
    }
    prev.0
}

pub fn per_layer(bench: &Bench, run: &Run) -> Result<Vec<Metric>, String> {
    let inputs = bench.inputs;
    let err = |e: TriqError| e.to_string();
    let queries = run.query_ms.len() as f64;
    let updates = run.update_ms.len() as f64;
    let writes = updates + run.classes.get("load").map_or(0, |t| t.attempted) as f64;
    let executions = delta(run, "engine.executions");

    // -- in-process replay: parse, load, persistence.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body = turtle(&inputs.base);
    let mut parse_rate = Vec::new();
    let mut graph = None;
    for _ in 0..3 {
        let t = Instant::now();
        let g = parse_turtle_parallel(&body, threads).map_err(err)?;
        parse_rate.push(g.len() as f64 / t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let graph = graph.expect("parsed above");
    let rules = parse_program(&inputs.rules).map_err(err)?;
    let telemetry = Telemetry::new();
    let engine = Engine::builder()
        .library(rules.clone())
        .recorder(telemetry.clone())
        .build();
    let t = Instant::now();
    let session = engine.load_graph(graph.clone());
    let load_graph_ms = ms(t);
    let open_ms = match &run.crashed_copy {
        Some(dir) => {
            let scratch = Engine::builder().library(rules.clone()).build();
            let t = Instant::now();
            let opened = Persistence::open(dir, PersistConfig::default(), &scratch).map_err(err)?;
            let took = ms(t);
            drop(opened);
            let _ = std::fs::remove_dir_all(dir);
            took
        }
        None => 0.0,
    };

    // -- prepare and first materialization, on a fresh engine.
    let distinct: Vec<_> = {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        let mut i = 0;
        while out.len() < 64 && i < 20_000 {
            let q = inputs.read(i);
            if seen.insert(q.text.clone()) {
                out.push(q);
            }
            i += 1;
        }
        out
    };
    let semantics = |regime: &str| match regime {
        "ku" => Semantics::RegimeU,
        "kall" => Semantics::RegimeAll,
        _ => Semantics::Plain,
    };
    let prep_engine = Engine::builder().library(rules.clone()).build();
    let mut prepare_us = Vec::new();
    let mut materialize_ms = Vec::new();
    let mut prepared = Vec::new();
    let shared = prep_engine.load_graph(graph.clone()).into_shared();
    for round in 0..(64 / distinct.len()).max(1) {
        for q in &distinct {
            let select = parse_select(&q.text).map_err(err)?;
            let t = Instant::now();
            let p = prep_engine
                .prepare((select, semantics(q.regime)))
                .map_err(err)?;
            prepare_us.push(t.elapsed().as_secs_f64() * 1e6);
            if round == 0 {
                prepared.push(p);
            }
        }
    }
    for p in &prepared {
        let t = Instant::now();
        shared.mappings_versioned(p).map_err(err)?;
        materialize_ms.push(ms(t));
    }
    // Hit path: answers decoded from the published snapshot.
    let mut decode_us = Vec::new();
    let hot: Vec<_> = prepared.iter().rev().take(4).collect();
    for i in 0..200 {
        let p = hot[i % hot.len()];
        let t = Instant::now();
        shared.mappings_versioned(p).map_err(err)?;
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // -- the writer's updates through SharedSession::apply, with the
    // warm-up views materialized as in the served run.
    let shared = session.into_shared();
    for q in &inputs.warmup {
        let select = parse_select(&q.text).map_err(err)?;
        let p = engine.prepare((select, semantics(q.regime))).map_err(err)?;
        shared.mappings_versioned(&p).map_err(err)?;
    }
    let before = engine.stats();
    let mut apply_ms = Vec::new();
    let mut i = 0;
    while apply_ms.len() < 60 {
        let op = inputs.write(i);
        i += 1;
        if let WriteOp::Update { .. } = op {
            let delta = parse_update_text(&op.body()).map_err(err)?;
            let t = Instant::now();
            shared.apply(&delta);
            apply_ms.push(ms(t));
        }
    }
    let rechases = (engine.stats().chase_runs - before.chase_runs) as f64 / apply_ms.len() as f64;

    // -- handler time versus client latency, over an in-process server.
    let service = QueryService::from_shared(
        engine.clone(),
        shared,
        None,
        ServiceConfig {
            telemetry: Some(telemetry),
            ..ServiceConfig::default()
        },
    );
    let timed = Arc::new(TimedHandler {
        inner: service.clone(),
        handle_ms: Mutex::new(Vec::new()),
    });
    let server = Server::serve(timed.clone(), "127.0.0.1:0", 2).map_err(|e| e.to_string())?;
    let mut conn = Conn::new(server.local_addr());
    let mut client_ms = Vec::new();
    let stop = Instant::now() + Duration::from_secs(3);
    let mut i = 0;
    while i < 2000 && Instant::now() < stop {
        let q = inputs.read(i);
        let t = Instant::now();
        let reply = conn.post(&q.path(), &q.text);
        client_ms.push(if reply.status == 200 {
            ms(t)
        } else {
            f64::INFINITY
        });
        i += 1;
    }
    drop(conn);
    service.stop_writer();
    server.shutdown();
    let handle_ms = timed.handle_ms.lock().expect("timings poisoned").clone();
    let wire_ms: Vec<f64> = client_ms
        .iter()
        .zip(&handle_ms)
        .map(|(c, h)| c - h)
        .collect();

    let written_rows = run.load_triples as f64 + run.update_rows as f64;
    let checkpoint_ms = (hist_p50(run, "triq_checkpoint_encode_ns")
        + hist_p50(run, "triq_checkpoint_write_ns"))
        / 1e6;
    Ok(vec![
        ("server.handler_ms_p50", median(&handle_ms), "ms"),
        ("server.wire_ms_p50", median(&wire_ms), "ms"),
        (
            "server.prepares_per_query",
            delta(run, "engine.prepared_queries") / queries,
            "count",
        ),
        (
            "server.writer_batch_mean",
            run.batched.iter().sum::<f64>() / updates.max(1.0),
            "count",
        ),
        (
            "server.cpu_ms_per_op",
            run.cpu_ms / (queries + writes),
            "ms",
        ),
        (
            "core.snapshot_hit_ratio",
            delta(run, "engine.cache_hits") / executions.max(1.0),
            "ratio",
        ),
        ("core.prepare_us_p50", median(&prepare_us), "us"),
        ("core.materialize_ms_p50", median(&materialize_ms), "ms"),
        (
            "core.views_published",
            last(run, "service.plans_materialized"),
            "count",
        ),
        ("core.apply_ms_p50", median(&apply_ms), "ms"),
        ("core.load_graph_ms", load_graph_ms, "ms"),
        ("translate.decode_us_p50", median(&decode_us), "us"),
        ("chase.runs", delta(run, "engine.chase_runs"), "count"),
        (
            "chase.atoms_derived",
            delta(run, "engine.atoms_derived"),
            "count",
        ),
        (
            "chase.join_probes",
            delta(run, "engine.join_probes"),
            "count",
        ),
        (
            "chase.index_builds",
            delta(run, "engine.index_builds"),
            "count",
        ),
        (
            "chase.stratum_ms_p50",
            hist_p50(run, "triq_chase_stratum_ns") / 1e6,
            "ms",
        ),
        (
            "chase.demand_fallbacks",
            delta(run, "engine.demand_fallbacks"),
            "count",
        ),
        ("incr.rechases_per_update", rechases, "count"),
        (
            "incr.atoms_overdeleted",
            delta(run, "engine.atoms_overdeleted"),
            "count",
        ),
        (
            "incr.atoms_rederived",
            delta(run, "engine.atoms_rederived"),
            "count",
        ),
        (
            "server.load_triples_per_s",
            run.load_triples_per_s(inputs.base.len()),
            "1/s",
        ),
        ("server.recovery_s", run.recovery_s(), "s"),
        ("rdf.parse_triples_per_s", median(&parse_rate), "1/s"),
        (
            "persist.wal_append_us_p50",
            hist_p50(run, "triq_wal_append_ns") / 1e3,
            "us",
        ),
        (
            "persist.fsync_us_p50",
            hist_p50(run, "triq_wal_fsync_ns") / 1e3,
            "us",
        ),
        (
            "persist.checkpoints",
            delta(run, "engine.snapshots_written"),
            "count",
        ),
        ("persist.checkpoint_ms_p50", checkpoint_ms, "ms"),
        (
            "persist.wal_bytes_per_triple",
            delta(run, "engine.wal_bytes") / written_rows.max(1.0),
            "B",
        ),
        ("persist.open_ms", open_ms, "ms"),
        (
            "persist.replayed_ops",
            run.recovered_stats
                .as_ref()
                .and_then(|s| s.at("engine.recovery_replayed_ops")?.num())
                .unwrap_or(0.0),
            "count",
        ),
        (
            "persist.recovery_chase_runs",
            run.recovered_stats
                .as_ref()
                .and_then(|s| s.at("engine.chase_runs")?.num())
                .unwrap_or(0.0),
            "count",
        ),
        ("traced.query_p50_ms", quantile(&run.query_ms, 0.5), "ms"),
        ("traced.update_p50_ms", quantile(&run.update_ms, 0.5), "ms"),
    ])
}

fn last(run: &Run, path: &str) -> f64 {
    run.stats
        .last()
        .and_then(|(_, b)| b.at(path)?.num())
        .unwrap_or(0.0)
}
