//! One benchmark run: set-up (repeated, median reported), the measured
//! phase with one reader connection in a closed loop and one writer
//! connection paced by the reader's progress, the
//! answer checks after it, and SIGKILL plus recovery. `durable_ingest`
//! repeats the measured phase in whole rounds, each ended by a SIGKILL
//! and a restart on the same directory.

use crate::gen::{fnv64, Inputs, Query, WriteOp};
use crate::net::{answer_rows, dir_bytes, wait_for, Conn, ServerProc, J};
use crate::oracle::{edge_map, reachable, regime_answers, Rows};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 7;
/// Pause between repeated set-ups. The shared machine has slow spells
/// lasting seconds; spacing the repetitions out keeps one spell from
/// covering all of them.
const SETUP_GAP: Duration = Duration::from_millis(600);

/// Per-class operation tally.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Run {
    pub correct: bool,
    /// Operations of the set-up, whose number is fixed.
    pub setup_ops: Tally,
    /// Operations from the measured phase on, per class.
    pub classes: BTreeMap<&'static str, Tally>,
    pub setup_s: Vec<f64>,
    pub setup_load_s: Vec<f64>,
    /// Latency in ms per op; a failed op is +inf.
    pub query_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub load_triples: u64,
    pub load_s: f64,
    /// Rows carried by acknowledged `/update`s.
    pub update_rows: u64,
    pub batched: Vec<f64>,
    /// Time the reader and the writer spent in requests: the measured
    /// phases' length less their fixed pauses.
    pub read_busy_s: f64,
    pub write_busy_s: f64,
    pub recovery_s: Vec<f64>,
    /// Data-directory bytes per live triple, before each SIGKILL.
    pub disk_bytes_per_triple: Vec<f64>,
    /// `VmHWM` of each recovered child after its checks.
    pub peak_rss_mib: Vec<f64>,
    pub cpu_ms: f64,
    /// `/stats` and `/metrics` of the serving child at the start and end
    /// of each measured phase (traced runs only), and `/stats` of the
    /// first recovered child.
    pub stats: Vec<(J, J)>,
    pub metrics: Vec<(String, String)>,
    pub recovered_stats: Option<J>,
    /// A copy of the data directory as the first SIGKILL left it (traced
    /// runs).
    pub crashed_copy: Option<PathBuf>,
}

impl Run {
    fn count(&mut self, class: &'static str, ok: bool) {
        let t = self.classes.entry(class).or_default();
        t.attempted += 1;
        if !ok {
            t.failed += 1;
        }
    }

    fn count_setup(&mut self, ok: bool) {
        self.setup_ops.attempted += 1;
        if !ok {
            self.setup_ops.failed += 1;
        }
    }

    fn problem(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.correct = false;
    }
}

/// The benchmark's own record of what the server should hold.
struct Model {
    live: HashSet<[String; 3]>,
}

impl Model {
    fn apply(&mut self, op: &WriteOp) {
        match op {
            WriteOp::Update { inserts, deletes } => {
                for d in deletes {
                    self.live.remove(d);
                }
                self.live.extend(inserts.iter().cloned());
            }
            WriteOp::Load(rows) => self.live.extend(rows.iter().cloned()),
            WriteOp::Expire(rows) => {
                for d in rows {
                    self.live.remove(d);
                }
            }
        }
    }

    fn sorted(&self) -> Vec<[String; 3]> {
        let mut v: Vec<_> = self.live.iter().cloned().collect();
        v.sort();
        v
    }
}

pub struct Bench<'a> {
    pub cli: &'a Path,
    pub work: &'a Path,
    pub inputs: &'a Inputs,
    pub seconds: f64,
    pub trace: bool,
}

/// Expected answers for the static queries of a workload (every
/// point_lookups key and the durable chain query: the writers never
/// change what they reach).
struct Expect {
    edges: HashMap<String, Vec<String>>,
    cache: Mutex<HashMap<String, Rows>>,
}

impl Expect {
    fn closure(&self, q: &Query) -> Rows {
        let start = q
            .text
            .split_whitespace()
            .nth(4)
            .unwrap_or_default()
            .to_string();
        let mut cache = self.cache.lock().expect("cache poisoned");
        cache
            .entry(start.clone())
            .or_insert_with(|| reachable(&self.edges, &start))
            .clone()
    }
}

/// When a measured phase ends.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    /// Exactly this many reads and writes.
    Counts(u64, u64),
}

impl Until {
    fn more(self, done: u64, reads: bool) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() < t,
            Until::Counts(r, w) => done < if reads { r } else { w },
        }
    }
}

/// What one measured phase saw. Reads keep their latency and status;
/// the answers of static queries are kept once per distinct reply body
/// and checked after the phase, so the generator's parsing stays out of
/// the reader's loop.
struct Phase {
    reads: Vec<(f64, bool)>,
    /// Regime reads: a reply that was not a 200 with at least one row.
    read_problems: Vec<String>,
    /// Static reads: the first body of each distinct (query, reply).
    bodies: HashMap<(u64, u64), (Query, String)>,
    writes: Vec<(WriteOp, f64, bool, f64)>,
    read_busy_s: f64,
    write_busy_s: f64,
    wall_s: f64,
}

impl Phase {
    fn update_ms(&self) -> Vec<f64> {
        self.writes
            .iter()
            .filter(|(op, ..)| matches!(op, WriteOp::Update { .. }))
            .map(|(_, ms, ..)| *ms)
            .collect()
    }
}

impl Bench<'_> {
    fn spawn(&self, data: &Path) -> Result<ServerProc, String> {
        ServerProc::spawn(
            self.cli,
            self.work,
            &self.inputs.rules,
            data,
            &self.inputs.serve_flags,
        )
    }

    fn regime(&self) -> bool {
        !self.inputs.regime_queries().is_empty()
    }

    fn durable_ingest(&self) -> bool {
        self.inputs.workload == "durable_ingest"
    }

    /// The expected answers of every warm-up query over `triples`.
    fn expected(&self, expect: &Expect, triples: &[[String; 3]]) -> Result<Vec<Rows>, String> {
        if self.regime() {
            regime_answers(triples, &self.inputs.warmup).map_err(|e| e.to_string())
        } else {
            Ok(self
                .inputs
                .warmup
                .iter()
                .map(|q| expect.closure(q))
                .collect())
        }
    }

    /// Starts a server on the fresh directory `data`, loads the base
    /// graph and checks the warm-up answers. Returns the server and the
    /// time from spawn to the last warm-up answer, and the load's time.
    fn set_up(
        &self,
        run: &mut Run,
        data: &Path,
        warm_expected: &[Rows],
    ) -> Result<(ServerProc, f64, f64), String> {
        let inputs = self.inputs;
        let t0 = Instant::now();
        let s = self.spawn(data)?;
        let mut conn = Conn::new(s.addr);
        let tl = Instant::now();
        let reply = conn.post("/load", &crate::gen::turtle(&inputs.base));
        let load_s = tl.elapsed().as_secs_f64();
        let loaded = J::parse(&reply.body)
            .as_ref()
            .and_then(|v| v.get("triples")?.num());
        let ok = reply.status == 200 && loaded == Some(inputs.base.len() as f64);
        run.count_setup(ok);
        if !ok {
            run.problem(format!("set-up load: {} {}", reply.status, reply.body));
        }
        for (q, want) in inputs.warmup.iter().zip(warm_expected) {
            let reply = conn.post(&q.path(), &q.text);
            run.count_setup(reply.status == 200);
            if answer_rows(&reply.body).as_ref() != Some(want) {
                run.problem(format!(
                    "warm-up answer of {:?} differs from the oracle",
                    q.text
                ));
            }
        }
        Ok((s, t0.elapsed().as_secs_f64(), load_s))
    }

    pub fn run(&self) -> Result<Run, String> {
        let inputs = self.inputs;
        let mut run = Run {
            correct: true,
            ..Run::default()
        };
        let expect = Expect {
            edges: edge_map(inputs.base.iter()),
            cache: Mutex::new(HashMap::new()),
        };
        let warm_expected = self.expected(&expect, &inputs.base)?;

        // -- set-up, repeated; the last server is the one measured.
        let mut data = PathBuf::new();
        let mut server: Option<ServerProc> = None;
        for k in 0..SETUPS {
            if let Some(s) = server.take() {
                s.kill();
                let _ = std::fs::remove_dir_all(&data);
                std::thread::sleep(SETUP_GAP);
            }
            data = self.work.join(format!("data{k}"));
            let (s, setup_s, load_s) = self.set_up(&mut run, &data, &warm_expected)?;
            run.setup_s.push(setup_s);
            run.setup_load_s.push(load_s);
            server = Some(s);
        }
        let mut server = server.expect("at least one set-up");

        // -- measured phases. Each is followed by its checks, a SIGKILL
        // and a restart on the same directory. A workload measured in
        // rounds sets up a fresh server for each further round and
        // replays the same operations, so every round is alike.
        let mut measured_s = 0.0;
        for round in 1.. {
            let mut model = Model {
                live: inputs.base.iter().cloned().collect(),
            };
            let mut admin = Conn::new(server.addr);
            let scrape = |admin: &mut Conn| (stats(admin), admin.get("/metrics").body);
            let before = self.trace.then(|| scrape(&mut admin));
            let cpu0 = server.cpu_ms();
            let until = match inputs.round {
                Some((reads, writes)) => Until::Counts(reads, writes),
                None => Until::Deadline(Instant::now() + Duration::from_secs_f64(self.seconds)),
            };
            let phase = self.measure(server.addr, until);
            run.cpu_ms += server.cpu_ms() - cpu0;
            if let Some((s0, m0)) = before {
                let (s1, m1) = scrape(&mut admin);
                run.stats.push((s0, s1));
                run.metrics.push((m0, m1));
            }
            let read_ms: Vec<f64> = phase.reads.iter().map(|(ms, _)| *ms).collect();
            let deciles = |v: &[f64]| {
                (1..10)
                    .map(|d| format!("{:.3}", quantile(v, d as f64 / 10.0)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            eprintln!(
                "phase {round}: {} reads, {} writes in {:.2} s; read deciles (ms) {}; update deciles (ms) {}",
                phase.reads.len(),
                phase.writes.len(),
                phase.wall_s,
                deciles(&read_ms),
                deciles(&phase.update_ms()),
            );
            measured_s += phase.wall_s;
            self.tally_phase(&mut run, &mut model, &expect, phase);

            // -- answers after the writer stopped, against the tally.
            let final_triples = model.sorted();
            let final_expected = self.expected(&expect, &final_triples)?;
            if self.regime() {
                for (q, want) in inputs.warmup.iter().zip(&final_expected) {
                    let reply = admin.post(&q.path(), &q.text);
                    run.count("query", reply.status == 200);
                    if answer_rows(&reply.body).as_ref() != Some(want) {
                        run.problem(format!(
                            "final answer of {:?} differs from the oracle",
                            q.text
                        ));
                    }
                }
            }
            run.disk_bytes_per_triple
                .push(dir_bytes(&data) as f64 / final_triples.len() as f64);

            // -- SIGKILL, restart on the same directory, first correct answer.
            server.kill();
            if self.trace && run.crashed_copy.is_none() {
                let copy = self.work.join("crashed");
                copy_dir(&data, &copy).map_err(|e| format!("copying the data directory: {e}"))?;
                run.crashed_copy = Some(copy);
            }
            self.recover(&mut run, &data, &final_triples, &final_expected)?;
            let _ = std::fs::remove_dir_all(&data);
            if inputs.round.is_none() || measured_s >= self.seconds {
                break;
            }
            data = self.work.join(format!("data{}", SETUPS + round));
            server = self.set_up(&mut run, &data, &warm_expected)?.0;
        }
        Ok(run)
    }

    /// One measured phase: the reader runs a closed loop on its own
    /// connection; the writer, on another, sends each operation once the
    /// reader has completed its share of reads (at once if unpaced).
    fn measure(&self, addr: SocketAddr, until: Until) -> Phase {
        let inputs = self.inputs;
        let regime = self.regime();
        let start = Instant::now();
        // Reads completed so far, for the writer's pacing.
        let progress = (Mutex::new(0u64), Condvar::new());
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut reads = Vec::new();
                let mut problems = Vec::new();
                let mut bodies = HashMap::new();
                let mut paused = Duration::ZERO;
                while until.more(reads.len() as u64, true) {
                    let q = inputs.read(reads.len() as u64);
                    let t = Instant::now();
                    let reply = conn.post(&q.path(), &q.text);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let ok = reply.status == 200;
                    reads.push((ms, ok));
                    *progress.0.lock().expect("progress poisoned") = reads.len() as u64;
                    progress.1.notify_one();
                    if !ok {
                        problems.push(format!("reply {} to {:?}", reply.status, q.text));
                    } else if regime {
                        // The answers move with the writer; each one must
                        // hold a row. Full answers are checked after the
                        // phase, against the tallied graph.
                        if !reply.body.contains("\"rows\":[[") {
                            problems.push(format!("empty answer to {:?}", q.text));
                        }
                    } else {
                        let key = (fnv64(q.text.as_bytes()), fnv64(reply.body.as_bytes()));
                        bodies.entry(key).or_insert_with(|| (q, reply.body));
                    }
                    if inputs.reader_pause_ms > 0 {
                        let t = Instant::now();
                        std::thread::sleep(Duration::from_millis(inputs.reader_pause_ms));
                        paused += t.elapsed();
                    }
                }
                // Wake a writer still waiting for reads that will not come.
                *progress.0.lock().expect("progress poisoned") = u64::MAX;
                progress.1.notify_one();
                let busy = start.elapsed().saturating_sub(paused).as_secs_f64();
                (reads, problems, bodies, busy)
            });
            let writer = scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut out: Vec<(WriteOp, f64, bool, f64)> = Vec::new();
                let mut paused = Duration::ZERO;
                while until.more(out.len() as u64, false) {
                    let due = (out.len() as u64 + 1) * inputs.reads_per_write;
                    let t = Instant::now();
                    let done = progress
                        .1
                        .wait_while(progress.0.lock().expect("progress poisoned"), |r| *r < due)
                        .expect("progress poisoned");
                    let reader_ended = *done == u64::MAX;
                    drop(done);
                    paused += t.elapsed();
                    if reader_ended && matches!(until, Until::Deadline(_)) {
                        break;
                    }
                    let op = inputs.write(out.len() as u64);
                    let body = op.body();
                    let t = Instant::now();
                    let reply = conn.post(op.path(), &body);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let batched = J::parse(&reply.body)
                        .and_then(|v| v.get("batched")?.num())
                        .unwrap_or(0.0);
                    out.push((op, ms, reply.status == 200, batched));
                }
                (out, start.elapsed().saturating_sub(paused).as_secs_f64())
            });
            let (reads, read_problems, bodies, read_busy_s) =
                reader.join().expect("reader panicked");
            let (writes, write_busy_s) = writer.join().expect("writer panicked");
            Phase {
                reads,
                read_problems,
                bodies,
                writes,
                read_busy_s,
                write_busy_s,
                wall_s: start.elapsed().as_secs_f64(),
            }
        })
    }

    /// Folds a phase into the run: counts, latencies, the write tally,
    /// and the deferred answer checks of the static queries.
    fn tally_phase(&self, run: &mut Run, model: &mut Model, expect: &Expect, phase: Phase) {
        run.read_busy_s += phase.read_busy_s;
        run.write_busy_s += phase.write_busy_s;
        for (ms, ok) in phase.reads {
            run.count("query", ok);
            run.query_ms.push(if ok { ms } else { f64::INFINITY });
        }
        for msg in phase.read_problems {
            run.problem(msg);
        }
        for (q, body) in phase.bodies.values() {
            if answer_rows(body) != Some(expect.closure(q)) {
                run.problem(format!("answer to {:?} differs from the BFS", q.text));
            }
        }
        for (op, ms, ok, batched) in phase.writes {
            match &op {
                WriteOp::Load(rows) => {
                    run.count("load", ok);
                    if ok {
                        run.load_triples += rows.len() as u64;
                        run.load_s += ms / 1e3;
                    }
                }
                // Retention is part of ingest: counted with the loads,
                // kept out of the update latencies.
                WriteOp::Expire(rows) => {
                    run.count("load", ok);
                    if ok {
                        run.update_rows += rows.len() as u64;
                    }
                }
                WriteOp::Update { inserts, deletes } => {
                    run.count("update", ok);
                    if ok {
                        run.update_rows += (inserts.len() + deletes.len()) as u64;
                    }
                    run.update_ms.push(if ok { ms } else { f64::INFINITY });
                    run.batched.push(batched);
                }
            }
            if ok {
                model.apply(&op);
            } else {
                run.problem(format!("{} was refused", op.path()));
            }
        }
    }

    /// Restarts the server on `data` after a SIGKILL, checks it and
    /// kills it again. The recovery counts as failed if no correct answer
    /// comes within 60 s or, in `durable_ingest`, if answering the query
    /// it had materialized before the crash took a chase (`chase_runs` >
    /// 0).
    fn recover(
        &self,
        run: &mut Run,
        data: &Path,
        triples: &[[String; 3]],
        expected: &[Rows],
    ) -> Result<(), String> {
        let inputs = self.inputs;
        let (q, want) = (&inputs.warmup[0], &expected[0]);
        let t0 = Instant::now();
        let recovered = self.spawn(data)?;
        let mut conn = Conn::new(recovered.addr);
        let first = wait_for(Duration::from_secs(60), || {
            let reply = conn.post(&q.path(), &q.text);
            (reply.status == 200 && answer_rows(&reply.body).as_ref() == Some(want)).then_some(())
        });
        run.recovery_s.push(t0.elapsed().as_secs_f64());
        let after = stats(&mut conn);
        let chase_runs = after.at("engine.chase_runs").and_then(J::num);
        let view_kept = !self.durable_ingest() || chase_runs == Some(0.0);
        run.count("recovery", first.is_some() && view_kept);
        if first.is_none() {
            run.problem("no correct answer after recovery".into());
        } else if !view_kept {
            eprintln!(
                "failed op: the recovered server chased to answer its materialized query \
                 (chase_runs = {chase_runs:?})"
            );
        }
        run.recovered_stats.get_or_insert(after);
        for (q, want) in inputs.warmup.iter().zip(expected).skip(1) {
            let reply = conn.post(&q.path(), &q.text);
            run.count("query", reply.status == 200);
            if answer_rows(&reply.body).as_ref() != Some(want) {
                run.problem(format!(
                    "recovered answer of {:?} differs from the oracle",
                    q.text
                ));
            }
        }
        // Memory is read after the recovered child has answered every
        // warm-up query over one connection. The serving child's peak
        // depended on which of its threads happened to share a malloc
        // arena (about 300 or 390 MiB in alternate point_lookups runs).
        run.peak_rss_mib.push(recovered.peak_rss_mib());
        self.check_recovered(run, &mut conn, triples);
        recovered.kill();
        Ok(())
    }

    /// Every acknowledged write survived the SIGKILL.
    fn check_recovered(&self, run: &mut Run, conn: &mut Conn, triples: &[[String; 3]]) {
        let preds: &[&str] = match self.inputs.workload {
            "point_lookups" => &["e"],
            "regime_analytics" => &["advises", "memberOf"],
            _ => &["up", "ld"],
        };
        for p in preds {
            let text = format!("SELECT ?S ?O WHERE {{ ?S {p} ?O }}");
            let reply = conn.post("/query", &text);
            run.count("query", reply.status == 200);
            let want: Rows = triples
                .iter()
                .filter(|[_, tp, _]| tp == p)
                .map(|[s, _, o]| vec![Some(s.clone()), Some(o.clone())])
                .collect();
            if answer_rows(&reply.body).as_ref() != Some(&want) {
                run.problem(format!(
                    "recovered `{p}` triples differ from the acknowledged writes"
                ));
            }
        }
    }
}

fn stats(conn: &mut Conn) -> J {
    J::parse(&conn.get("/stats").body).unwrap_or(J::Null)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_dir() {
            copy_dir(&e.path(), &to.join(e.file_name()))?;
        } else {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// The `q`-quantile by linear interpolation between closest ranks (the
/// same rule as numpy's default); +inf samples sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

impl Run {
    /// Triples loaded per second. Durable ingest loads during the run;
    /// the other workloads only at set-up, where every set-up's load is
    /// pooled.
    pub fn load_triples_per_s(&self, base_triples: usize) -> f64 {
        if self.load_triples > 0 {
            self.load_triples as f64 / self.load_s
        } else {
            (base_triples * self.setup_load_s.len()) as f64 / self.setup_load_s.iter().sum::<f64>()
        }
    }

    /// The median restart time, SIGKILL to first correct answer.
    pub fn recovery_s(&self) -> f64 {
        median(&self.recovery_s)
    }
}
