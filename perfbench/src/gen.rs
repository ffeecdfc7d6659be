//! Seeded input generation. Everything the server receives (the graph
//! body, the rule library, every query and every update) is a pure
//! function of the workload and the seed, so one seed always yields
//! byte-identical inputs (`--check-inputs` verifies this).

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for item `index` of stream `tag`.
    pub fn at(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r =
            Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.rotate_left(32) ^ index);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One query as posted: body text plus its `regime` parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub regime: &'static str,
}

impl Query {
    pub fn path(&self) -> String {
        format!("/query?regime={}", self.regime)
    }
}

/// One writer operation: an `/update` body, a `/load` Turtle body, or
/// the `/update` that deletes an earlier load (retention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    Update {
        inserts: Vec<[String; 3]>,
        deletes: Vec<[String; 3]>,
    },
    Load(Vec<[String; 3]>),
    Expire(Vec<[String; 3]>),
}

impl WriteOp {
    pub fn path(&self) -> &'static str {
        match self {
            WriteOp::Update { .. } | WriteOp::Expire(_) => "/update",
            WriteOp::Load(_) => "/load",
        }
    }

    pub fn body(&self) -> String {
        let mut out = String::new();
        match self {
            WriteOp::Update { inserts, deletes } => {
                for [s, p, o] in deletes {
                    let _ = writeln!(out, "-triple({s}, {p}, {o})");
                }
                for [s, p, o] in inserts {
                    let _ = writeln!(out, "+triple({s}, {p}, {o})");
                }
            }
            WriteOp::Load(triples) => out = turtle(triples),
            WriteOp::Expire(triples) => {
                for [s, p, o] in triples {
                    let _ = writeln!(out, "-triple({s}, {p}, {o})");
                }
            }
        }
        out
    }
}

pub fn turtle(triples: &[[String; 3]]) -> String {
    let mut out = String::with_capacity(triples.len() * 32);
    for [s, p, o] in triples {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

fn t(s: impl Into<String>, p: &str, o: impl Into<String>) -> [String; 3] {
    [s.into(), p.to_string(), o.into()]
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["point_lookups", "regime_analytics", "durable_ingest"];

/// What the server is started with and what the two clients send.
pub struct Inputs {
    pub workload: &'static str,
    pub seed: u64,
    /// The base graph, posted to `POST /load` during set-up.
    pub base: Vec<[String; 3]>,
    /// The rule library installed with `serve`.
    pub rules: String,
    /// Extra `serve` flags (durability policy).
    pub serve_flags: Vec<String>,
    /// Queries answered during set-up before the server counts as ready.
    pub warmup: Vec<Query>,
    /// Writer pacing: writer operation `i` waits until the reader has
    /// completed `(i + 1) * reads_per_write` reads (0 = closed loop).
    /// Pacing by the reader's progress rather than by the clock keeps the
    /// mix of reads and writes the same on a fast and a slow machine.
    pub reads_per_write: u64,
    /// Pause after each reader operation, in ms (0 = closed loop).
    pub reader_pause_ms: u64,
    /// `(reads, writes)` of one measured round. The run repeats whole
    /// rounds, each ended by a SIGKILL and a restart, until `--seconds`
    /// have been measured. `None`: one measured phase of `--seconds`.
    pub round: Option<(u64, u64)>,
    kind: Kind,
}

enum Kind {
    Point {
        keys: usize,
        zipf_cdf: Vec<f64>,
        perm: Vec<usize>,
    },
    Regime {
        queries: Vec<Query>,
        depts: usize,
    },
    Durable {
        query: Query,
    },
}

// -- point_lookups ---------------------------------------------------------

/// Distinct lookup keys: well above the 64-entry prepared cache and the
/// 32-entry view cache.
pub const PL_KEYS: usize = 1200;
/// Nodes per connected component of the edge graph (bounds the closure).
pub const PL_COMPONENT: usize = 12;
/// Label triples per node that no rule reads.
pub const PL_LABELS: usize = 2;
/// Zipf exponent. Reads come in three modes: snapshot hits (~0.3 ms),
/// cold reads that only re-chase (~8 ms) and cold reads that also
/// re-prepare (~11 ms). At 1.1 and 1.2 the median read fell on a boundary
/// between two modes (33 % and 44 % hits) and jumped between them from
/// run to run. At 0.9 about 12 % of reads hit and the median lies well
/// inside the re-prepare mode.
pub const PL_ZIPF: f64 = 0.9;
/// Reads per writer operation, so the mix stays read-mostly.
pub const PL_READS_PER_WRITE: u64 = 16;
/// durable_ingest's small updates come in rounds of (insert, insert,
/// delete the pair inserted this many rounds earlier).
pub const LIVE_ROUNDS: u64 = 4;
/// Items (`w*` edges, new students) a point_lookups or regime_analytics
/// writer keeps live: update `i` inserts item `i + LIVE_ITEMS` and
/// deletes item `i`, so every update costs about the same.
pub const LIVE_ITEMS: u64 = 8;

pub const TC_RULES: &str = "triple(?X, e, ?Y) -> triple(?X, t, ?Y).\n\
                            triple(?X, t, ?Y), triple(?Y, e, ?Z) -> triple(?X, t, ?Z).\n";

fn point_lookups(seed: u64) -> Inputs {
    let mut rng = Rng::at(seed, 1, 0);
    // The edge structure comes from a stream that does not depend on the
    // seed; the seed renames the nodes. Every seed's graph is therefore
    // isomorphic, and a full-closure chase does the same work on each.
    let mut name: Vec<usize> = (0..PL_KEYS).collect();
    for i in (1..PL_KEYS).rev() {
        name.swap(i, rng.below(i + 1));
    }
    let node = |i: usize| format!("n{}", name[i]);
    let mut shape = Rng::at(0, 1, 0);
    let mut base = Vec::new();
    for i in 0..PL_KEYS {
        let end = (i / PL_COMPONENT + 1) * PL_COMPONENT;
        for _ in 0..2 {
            let j = i + 1 + shape.below(3);
            if j < end {
                base.push(t(node(i), "e", node(j)));
            }
        }
        base.push(t(node(i), "rdf:type", "node"));
        base.push(t(node(i), "color", format!("c{}", rng.below(10))));
        for k in 0..PL_LABELS {
            base.push(t(
                node(i),
                &format!("label{k}"),
                format!("\"node {} label {k}\"", name[i]),
            ));
        }
    }
    // Rank r of the Zipf law maps to key perm[r].
    let mut perm: Vec<usize> = (0..PL_KEYS).collect();
    for i in (1..PL_KEYS).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let weights: Vec<f64> = (1..=PL_KEYS).map(|r| (r as f64).powf(-PL_ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let zipf_cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut inputs = Inputs {
        workload: "point_lookups",
        seed,
        base,
        rules: TC_RULES.to_string(),
        serve_flags: vec!["--fsync".into(), "off".into()],
        warmup: Vec::new(),
        reads_per_write: PL_READS_PER_WRITE,
        reader_pause_ms: 0,
        round: None,
        kind: Kind::Point {
            keys: PL_KEYS,
            zipf_cdf,
            perm,
        },
    };
    // The writer deletes what it inserted LIVE_ITEMS updates earlier, so
    // the first LIVE_ITEMS edges are part of the base graph.
    for n in 0..LIVE_ITEMS {
        let edge = inputs.pl_edge(n);
        inputs.base.push(edge);
    }
    inputs.warmup = (0..32)
        .map(|r| point_query(inputs.key_of_rank(r)))
        .collect();
    inputs
}

pub fn point_query(key: usize) -> Query {
    Query {
        text: format!("SELECT ?Y WHERE {{ n{key} t ?Y }}"),
        regime: "plain",
    }
}

impl Inputs {
    fn key_of_rank(&self, rank: usize) -> usize {
        match &self.kind {
            Kind::Point { perm, .. } => perm[rank],
            _ => unreachable!("only point_lookups has ranked keys"),
        }
    }

    /// The edge a point_lookups writer round inserts for `w{node}`.
    fn pl_edge(&self, node: u64) -> [String; 3] {
        let Kind::Point { keys, .. } = &self.kind else {
            unreachable!()
        };
        let mut rng = Rng::at(self.seed, 2, node);
        t(format!("w{node}"), "e", format!("n{}", rng.below(*keys)))
    }

    /// Update `op` inserts one fresh edge and deletes the one inserted
    /// LIVE_ITEMS updates earlier.
    fn pl_write(&self, op: u64) -> WriteOp {
        WriteOp::Update {
            inserts: vec![self.pl_edge(op + LIVE_ITEMS)],
            deletes: vec![self.pl_edge(op)],
        }
    }
}

// -- regime_analytics ------------------------------------------------------

pub const RA_DEPTS: usize = 20;
pub const RA_PROFS: usize = 8;
pub const RA_ADJUNCTS: usize = 2;
pub const RA_STUDENTS: usize = 90;
/// Reads per writer operation: enough that the writer keeps to its
/// schedule instead of running flat out, so the mix is the same in
/// every run.
pub const RA_READS_PER_WRITE: u64 = 36;

pub const ONTOLOGY: [[&str; 3]; 12] = [
    ["professor", "rdfs:subClassOf", "faculty"],
    ["faculty", "rdfs:subClassOf", "person"],
    ["student", "rdfs:subClassOf", "person"],
    ["advises", "rdfs:subPropertyOf", "worksWith"],
    ["exists_teaches", "rdf:type", "owl:Restriction"],
    ["exists_teaches", "owl:onProperty", "teaches"],
    ["exists_teaches", "owl:someValuesFrom", "owl:Thing"],
    ["exists_advises", "rdf:type", "owl:Restriction"],
    ["exists_advises", "owl:onProperty", "advises"],
    ["exists_advises", "owl:someValuesFrom", "owl:Thing"],
    ["professor", "rdfs:subClassOf", "exists_teaches"],
    ["exists_advises", "rdfs:subClassOf", "professor"],
];

pub fn regime_queries() -> Vec<Query> {
    vec![
        Query {
            text: "SELECT ?X WHERE { ?X rdf:type person }".into(),
            regime: "ku",
        },
        Query {
            text: "SELECT ?X ?Y WHERE { ?X worksWith ?Y }".into(),
            regime: "ku",
        },
        Query {
            text: "SELECT ?X ?Y WHERE { ?X worksWith ?Y . ?X teaches _:C }".into(),
            regime: "kall",
        },
        Query {
            text: "SELECT ?X ?Y ?D WHERE { ?X advises ?Y . ?Y memberOf ?D }".into(),
            regime: "plain",
        },
    ]
}

fn regime_analytics(seed: u64) -> Inputs {
    let mut rng = Rng::at(seed, 3, 0);
    let mut base: Vec<[String; 3]> = ONTOLOGY.iter().map(|[s, p, o]| t(*s, p, *o)).collect();
    for d in 0..RA_DEPTS {
        for p in 0..RA_PROFS {
            base.push(t(format!("prof_{d}_{p}"), "rdf:type", "professor"));
            base.push(t(format!("prof_{d}_{p}"), "memberOf", format!("dept{d}")));
            if rng.below(2) == 0 {
                base.push(t(
                    format!("prof_{d}_{p}"),
                    "teaches",
                    format!("course_{d}_{p}"),
                ));
            }
        }
        // Adjuncts are typed only through ∃advises ⊑ professor.
        for a in 0..RA_ADJUNCTS {
            base.push(t(format!("adj_{d}_{a}"), "memberOf", format!("dept{d}")));
        }
        for s in 0..RA_STUDENTS {
            base.push(t(format!("student_{d}_{s}"), "rdf:type", "student"));
            base.push(t(
                format!("student_{d}_{s}"),
                "memberOf",
                format!("dept{d}"),
            ));
            if rng.unit() < 0.8 {
                base.push(t(
                    advisor(&mut rng, d),
                    "advises",
                    format!("student_{d}_{s}"),
                ));
            }
        }
    }
    let queries = regime_queries();
    let mut inputs = Inputs {
        workload: "regime_analytics",
        seed,
        base,
        rules: String::new(),
        serve_flags: vec!["--fsync".into(), "off".into()],
        warmup: queries.clone(),
        reads_per_write: RA_READS_PER_WRITE,
        reader_pause_ms: 0,
        round: None,
        kind: Kind::Regime {
            queries,
            depts: RA_DEPTS,
        },
    };
    for n in 0..LIVE_ITEMS {
        let student = inputs.ra_student(n);
        inputs.base.extend(student);
    }
    inputs
}

fn advisor(rng: &mut Rng, d: usize) -> String {
    let k = rng.below(RA_PROFS + RA_ADJUNCTS);
    if k < RA_PROFS {
        format!("prof_{d}_{k}")
    } else {
        format!("adj_{d}_{}", k - RA_PROFS)
    }
}

impl Inputs {
    fn ra_student(&self, n: u64) -> Vec<[String; 3]> {
        let Kind::Regime { depts, .. } = &self.kind else {
            unreachable!()
        };
        let mut rng = Rng::at(self.seed, 4, n);
        let d = rng.below(*depts);
        let name = format!("newstudent_{n}");
        vec![
            t(name.clone(), "rdf:type", "student"),
            t(name.clone(), "memberOf", format!("dept{d}")),
            t(advisor(&mut rng, d), "advises", name),
        ]
    }

    /// Update `op` adds one new student and removes the one added
    /// LIVE_ITEMS updates earlier.
    fn ra_write(&self, op: u64) -> WriteOp {
        WriteOp::Update {
            inserts: self.ra_student(op + LIVE_ITEMS),
            deletes: self.ra_student(op),
        }
    }
}

// -- durable_ingest --------------------------------------------------------

/// Length of the static chain the polled point query closes over.
pub const DI_CHAIN: usize = 30;
/// Triples per `POST /load` body.
pub const DI_LOAD_TRIPLES: usize = 2000;
/// Loads retained: each cycle deletes the load made this many cycles
/// earlier, so the database stays the same size however fast it runs.
pub const DI_LIVE_LOADS: u64 = 4;
/// `/update`s per cycle (a multiple of 3: whole update rounds). A cycle
/// of one load, one expiry and these updates is 20 WAL records, a fifth
/// of the checkpoint interval.
pub const DI_UPDATES_PER_LOAD: u64 = 18;
pub const DI_CHECKPOINT_OPS: u64 = 100;
/// Writer cycles per measured round: 160 WAL records. A restarted server
/// counts appended records from 0, so its checkpoint lands after the
/// round's record 100 and the SIGKILL at the round's end leaves exactly
/// 60 records (three cycles, about 12 000 facts) to replay. The first
/// round follows the set-up load's 7 batches, so its tail also holds 7
/// small updates.
pub const DI_ROUND_CYCLES: u64 = 8;
/// Reads per measured round: about as long as the writer's cycles take.
pub const DI_ROUND_READS: u64 = 2500;

fn durable_ingest(seed: u64) -> Inputs {
    let mut rng = Rng::at(seed, 5, 0);
    let mut base = Vec::new();
    for i in 0..DI_CHAIN {
        base.push(t(format!("h{i}"), "e", format!("h{}", i + 1)));
    }
    for i in 0..20_000 {
        base.push(t(format!("item{i}"), "ld", format!("v{}", rng.below(1000))));
    }
    let query = Query {
        text: "SELECT ?Y WHERE { h0 t ?Y }".into(),
        regime: "plain",
    };
    let mut inputs = Inputs {
        workload: "durable_ingest",
        seed,
        base,
        rules: TC_RULES.to_string(),
        serve_flags: vec![
            "--fsync".into(),
            "per-batch".into(),
            "--checkpoint-ops".into(),
            DI_CHECKPOINT_OPS.to_string(),
        ],
        warmup: vec![query.clone()],
        reads_per_write: 0,
        reader_pause_ms: 1,
        round: Some((DI_ROUND_READS, DI_ROUND_CYCLES * (DI_UPDATES_PER_LOAD + 2))),
        kind: Kind::Durable { query },
    };
    for r in 0..LIVE_ROUNDS {
        for step in 0..2 {
            if let WriteOp::Update { inserts, .. } = inputs.di_update(r * 3 + step) {
                inputs.base.extend(inserts);
            }
        }
    }
    for c in 0..DI_LIVE_LOADS {
        let rows = inputs.di_load(c);
        inputs.base.extend(rows);
    }
    inputs
}

impl Inputs {
    fn di_row(&self, n: u64) -> [String; 3] {
        let mut rng = Rng::at(self.seed, 6, n);
        t(format!("u{n}"), "up", format!("v{}", rng.below(1000)))
    }

    fn di_update(&self, k: u64) -> WriteOp {
        let (round, step) = (k / 3, k % 3);
        match step {
            0 | 1 => WriteOp::Update {
                inserts: vec![self.di_row(2 * round + step)],
                deletes: vec![],
            },
            _ => {
                let old = round - LIVE_ROUNDS;
                WriteOp::Update {
                    inserts: vec![],
                    deletes: vec![self.di_row(2 * old), self.di_row(2 * old + 1)],
                }
            }
        }
    }

    /// The rows of load `c`. Subjects come from a fixed pool of
    /// 2 * DI_LIVE_LOADS slots, reused once the load that last used a
    /// slot has expired, so the set of names the server interns stays
    /// bounded however many cycles a run completes.
    fn di_load(&self, c: u64) -> Vec<[String; 3]> {
        let mut rng = Rng::at(self.seed, 7, c);
        let slot = c % (2 * DI_LIVE_LOADS);
        (0..DI_LOAD_TRIPLES)
            .map(|i| {
                t(
                    format!("b{slot}_{i}"),
                    "ld",
                    format!("v{}", rng.below(1000)),
                )
            })
            .collect()
    }

    /// A writer cycle is one load, the expiry of the load made
    /// DI_LIVE_LOADS cycles earlier, then DI_UPDATES_PER_LOAD updates.
    fn di_write(&self, op: u64) -> WriteOp {
        let (c, k) = (
            op / (DI_UPDATES_PER_LOAD + 2),
            op % (DI_UPDATES_PER_LOAD + 2),
        );
        match k {
            0 => WriteOp::Load(self.di_load(c + DI_LIVE_LOADS)),
            1 => WriteOp::Expire(self.di_load(c)),
            _ => self.di_update(c * DI_UPDATES_PER_LOAD + k - 2 + LIVE_ROUNDS * 3),
        }
    }
}

// -- common ----------------------------------------------------------------

impl Inputs {
    pub fn new(workload: &str, seed: u64) -> Option<Inputs> {
        let mut inputs = match workload {
            "point_lookups" => point_lookups(seed),
            "regime_analytics" => regime_analytics(seed),
            "durable_ingest" => durable_ingest(seed),
            _ => return None,
        };
        // A graph is a set: drop repeated triples, keeping first occurrences.
        let mut seen = std::collections::HashSet::new();
        inputs.base.retain(|t| seen.insert(t.clone()));
        Some(inputs)
    }

    /// Reader operation `i`.
    pub fn read(&self, i: u64) -> Query {
        match &self.kind {
            Kind::Point { zipf_cdf, .. } => {
                let u = Rng::at(self.seed, 8, i).unit();
                let rank = zipf_cdf.partition_point(|&c| c < u).min(zipf_cdf.len() - 1);
                point_query(self.key_of_rank(rank))
            }
            Kind::Regime { queries, .. } => queries[(i % queries.len() as u64) as usize].clone(),
            Kind::Durable { query } => query.clone(),
        }
    }

    /// Writer operation `i` (the first one follows the base graph).
    pub fn write(&self, i: u64) -> WriteOp {
        match &self.kind {
            Kind::Point { .. } => self.pl_write(i),
            Kind::Regime { .. } => self.ra_write(i),
            Kind::Durable { .. } => self.di_write(i),
        }
    }

    pub fn regime_queries(&self) -> &[Query] {
        match &self.kind {
            Kind::Regime { queries, .. } => queries,
            _ => &[],
        }
    }

    /// Every input rendered to bytes: the base graph, the rules, the
    /// serve flags and the first `ops` reads and writes.
    pub fn render(&self, ops: u64) -> String {
        let mut out = format!("workload {} seed {}\n", self.workload, self.seed);
        out.push_str(&turtle(&self.base));
        let _ = writeln!(out, "rules:\n{}flags: {:?}", self.rules, self.serve_flags);
        for q in &self.warmup {
            let _ = writeln!(out, "warmup {} {}", q.regime, q.text);
        }
        for i in 0..ops {
            let q = self.read(i);
            let _ = writeln!(out, "read {i} {} {}", q.regime, q.text);
        }
        for i in 0..ops {
            let w = self.write(i);
            let _ = writeln!(out, "write {i} {}\n{}", w.path(), w.body());
        }
        out
    }
}

/// FNV-1a, for printing a short digest of the rendered inputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}
