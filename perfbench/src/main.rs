//! The triq end-to-end benchmark: load generator, answer checks and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check-inputs [--seed <n>]
//! ```
//!
//! A run starts `triq-cli serve` (the binary named by `TRIQ_CLI`) as a
//! child process, drives it over HTTP and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See README.md.

mod gen;
mod net;
mod oracle;
mod trace;
mod workload;

use gen::{fnv64, Inputs, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{median, quantile, Bench, Run};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_inputs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_inputs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--check-inputs" => a.check_inputs = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Generates every workload's inputs twice and compares the bytes.
fn check_inputs(seed: u64) -> bool {
    let mut same = true;
    for w in WORKLOADS {
        let a = Inputs::new(w, seed).expect("known workload").render(2000);
        let b = Inputs::new(w, seed).expect("known workload").render(2000);
        let other = Inputs::new(w, seed + 1)
            .expect("known workload")
            .render(2000);
        println!(
            "{w} seed {seed}: {} bytes, digest {:016x}; identical on regeneration: {}; seed {} differs: {}",
            a.len(),
            fnv64(a.as_bytes()),
            a == b,
            seed + 1,
            a != other
        );
        same &= a == b && a != other;
    }
    same
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_inputs {
        return if check_inputs(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(inputs) = args
        .workload
        .as_deref()
        .and_then(|w| Inputs::new(w, args.seed))
    else {
        eprintln!("error: --workload must be one of {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let cli = PathBuf::from(
        std::env::var("TRIQ_CLI").unwrap_or_else(|_| "target/release/triq-cli".into()),
    );
    if !cli.is_file() {
        eprintln!(
            "error: triq-cli not found at {} (set TRIQ_CLI)",
            cli.display()
        );
        return ExitCode::FAILURE;
    }
    let work = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        inputs.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{} seed {}: inputs digest {:016x}",
        inputs.workload,
        inputs.seed,
        fnv64(inputs.render(2000).as_bytes())
    );
    let bench = Bench {
        cli: &cli,
        work: &work,
        inputs: &inputs,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = bench.run().and_then(|run| {
        let metrics = if args.trace {
            trace::per_layer(&bench, &run)?
        } else {
            end_to_end(&run)
        };
        Ok((run, metrics))
    });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    let (run, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Set-up operations are checked but not counted in the result: their
    // number is fixed, while the measured rounds repeat, so only the
    // latter keep the failed share of `attempted` the same in every run.
    println!(
        "ops setup: attempted {} failed {}",
        run.setup_ops.attempted, run.setup_ops.failed
    );
    let (mut attempted, mut failed) = (0, 0);
    for (class, t) in &run.classes {
        println!("ops {class}: attempted {} failed {}", t.attempted, t.failed);
        attempted += t.attempted;
        failed += t.failed;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.correct,
        body.join(", ")
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an answer check failed");
        ExitCode::FAILURE
    }
}

/// A finite JSON number; a percentile that a failed operation pushed to
/// infinity is reported as 1e12.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

pub type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let ok = |ms: &[f64]| ms.iter().filter(|v| v.is_finite()).count() as f64;
    vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("query_p50_ms", quantile(&run.query_ms, 0.50), "ms"),
        ("query_p99_ms", quantile(&run.query_ms, 0.99), "ms"),
        ("query_rps", ok(&run.query_ms) / run.read_busy_s, "1/s"),
        ("update_p50_ms", quantile(&run.update_ms, 0.50), "ms"),
        ("update_p90_ms", quantile(&run.update_ms, 0.90), "ms"),
        ("update_rps", ok(&run.update_ms) / run.write_busy_s, "1/s"),
        (
            "disk_bytes_per_triple",
            median(&run.disk_bytes_per_triple),
            "B",
        ),
        ("peak_rss_mb", median(&run.peak_rss_mib), "MiB"),
    ]
}
