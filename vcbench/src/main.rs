//! `vcbench` — the repository benchmark.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path vcbench/Cargo.toml -- \
//!       --workload batch-cold --seed 1 --seconds 30 --trace 0
//! $ cargo run --release --offline --manifest-path vcbench/Cargo.toml -- \
//!       --selfcheck 10
//! ```
//!
//! One run generates a workload's inputs from `--seed`, drives the
//! scheduler through its public crates for about `--seconds`, checks
//! every output, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero when any output fails a check. `--selfcheck N` runs every
//! workload of `BENCHMARK.json` on N seeds twice and reports whether the
//! two sets agree within each metric's bound. See README.md.

mod alloc;
mod batch;
mod checks;
mod inputs;
mod layers;
mod selfcheck;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Layers;
use spans::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["batch-cold", "serve-hot", "serve-online"];

/// Set-ups per run of serve-hot, whose set-up solves every block and
/// takes seconds; `setup_s` is their median. The serve workloads run half
/// their set-ups before the measured loop and half after it; batch-cold
/// sets up before each of its passes.
pub const SETUP_REPEATS: usize = 4;

/// Set-ups per run of serve-online, whose set-up takes a tenth of a
/// second; the median of more of them holds steadier.
pub const QUICK_SETUP_REPEATS: usize = 12;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Fixed latency limit of `ontime_share` on batch-cold and serve-hot
/// (serve-online uses each request's own deadline).
pub const LIMIT_MS: f64 = 5.0;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics every workload reports.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub ontime_share: f64,
    pub ok_share: f64,
    pub awct_cycles: f64,
    pub vc_decided_share: f64,
    /// Peak live heap above its level when the measured work started.
    pub peak_heap_mb: f64,
    pub setup_s: f64,
}

/// What one workload run produced.
pub struct Run {
    /// Operations attempted (blocks solved or requests sent).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// Filled only by a traced run.
    pub layers: Layers,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse()
            .map_err(|e| format!("bad {name} value: {e}"))
    };
    let workload = need("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn json_number(value: f64) -> String {
    // `{}` prints the shortest text that reads back as the same f64.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(",")
    )
}

fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    vec![
        Metric::new("throughput_per_s", e.throughput_per_s, "1/s"),
        Metric::new("p50_ms", e.p50_ms, "ms"),
        Metric::new("p90_ms", e.p90_ms, "ms"),
        Metric::new("ontime_share", e.ontime_share, "share"),
        Metric::new("ok_share", e.ok_share, "share"),
        Metric::new("awct_cycles", e.awct_cycles, "cycles"),
        Metric::new("vc_decided_share", e.vc_decided_share, "share"),
        Metric::new("peak_heap_mb", e.peak_heap_mb, "MiB"),
        Metric::new("setup_s", e.setup_s, "s"),
    ]
}

fn run(args: &Args) -> Result<Run, String> {
    let tracer = args.trace.then(Tracer::new);
    let run = match args.workload.as_str() {
        "batch-cold" => batch::run(args.seed, args.seconds, tracer.as_ref()),
        "serve-hot" => serve::hot(args.seed, args.seconds, tracer.as_ref()),
        _ => serve::online(args.seed, args.seconds, tracer.as_ref()),
    }?;
    if let Some(tracer) = &tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("vcbench: spans written to {}", path.display());
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(runs) = flag(&args, "--selfcheck") {
        return match runs.parse() {
            Ok(runs) => selfcheck::run(runs),
            Err(e) => {
                eprintln!("vcbench: bad --selfcheck value: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vcbench: {e}");
            eprintln!(
                "usage: vcbench --workload <{}> --seed N --seconds S --trace 0|1\n       \
                 vcbench --selfcheck RUNS",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            let metrics = if args.trace {
                run.layers.metrics()
            } else {
                end_to_end_metrics(&run.end_to_end)
            };
            println!("{}", result_line(&run, &metrics));
            if run.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("vcbench: {} operations failed a check", run.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("vcbench: {e}");
            ExitCode::from(2)
        }
    }
}
