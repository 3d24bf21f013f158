//! Steadiness self-check: two sets of runs of the same build.
//!
//! For every workload of `BENCHMARK.json`, runs this binary on `runs`
//! seeds per set (set one on seeds `1..=runs`, set two on the next `runs`
//! seeds, so seed-to-seed spread shows in both checks), then prints
//! per metric each set's median and quartiles and whether the sets agree:
//! each set's quartile spread (as a share of its median) is within the
//! metric's bound, and the two medians differ, either way, by no more
//! than the bound. Exits non-zero when any metric disagrees.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::stats::{median, quartiles};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Spec {
    workloads: Vec<String>,
    seconds: u64,
    bounds: Vec<Bound>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn read_spec() -> Result<Spec, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json entry lacks `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text_of(m, "name")?,
                lower_is_better: text_of(m, "better")? == "lower",
                bound: m.get("bound").and_then(number).ok_or("bound missing")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let seconds = doc
        .get("run_seconds")
        .and_then(number)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;
    Ok(Spec {
        workloads,
        seconds,
        bounds,
    })
}

/// Runs one workload on one seed; returns the metrics of its result line.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {last}",
            output.status
        ));
    }
    let doc: Value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(number)?)))
        .collect())
}

pub fn run(runs: usize) -> ExitCode {
    match check(runs) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vcbench selfcheck: {e}");
            ExitCode::from(2)
        }
    }
}

fn check(runs: usize) -> Result<bool, String> {
    if runs < 2 {
        return Err("--selfcheck needs at least 2 runs per set".to_owned());
    }
    let spec = read_spec()?;
    let mut all_agree = true;
    for workload in &spec.workloads {
        // sets[s][r] = metrics of run r of set s.
        let mut sets = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = 1 + (s * runs + r) as u64;
                let metrics = run_once(workload, seed, spec.seconds)?;
                let shown: Vec<String> = metrics.iter().map(|(n, v)| format!("{n}={v}")).collect();
                eprintln!("{workload} set {} seed {seed}: {}", s + 1, shown.join(" "));
                set.push(metrics);
            }
        }
        println!("{workload}");
        for b in &spec.bounds {
            let values = |set: &[Vec<(String, f64)>]| -> Vec<f64> {
                set.iter()
                    .filter_map(|m| m.iter().find(|(n, _)| *n == b.name).map(|(_, v)| *v))
                    .collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            if first.len() < runs || second.len() < runs {
                println!("  {:<18} missing from some runs", b.name);
                all_agree = false;
                continue;
            }
            let summary = |v: &[f64]| {
                let m = median(v);
                let (q1, q3) = quartiles(v);
                (m, q1, q3, (q3 - q1) / m.abs().max(f64::MIN_POSITIVE))
            };
            let (m1, q1a, q3a, spread1) = summary(&first);
            let (m2, q1b, q3b, spread2) = summary(&second);
            // Both sets run the same build, so a move either way counts;
            // the sign only says which way it went.
            let worse = if b.lower_is_better { m2 - m1 } else { m1 - m2 };
            let shift = worse / m1.abs().max(f64::MIN_POSITIVE);
            let agree = spread1 <= b.bound && spread2 <= b.bound && shift.abs() <= b.bound;
            all_agree &= agree;
            println!(
                "  {:<18} set1 median {:.6} [{:.6}, {:.6}] spread {:.4} | \
                 set2 median {:.6} [{:.6}, {:.6}] spread {:.4} | worse by {:.4} | bound {} {}",
                b.name,
                m1,
                q1a,
                q3a,
                spread1,
                m2,
                q1b,
                q3b,
                spread2,
                shift,
                b.bound,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(all_agree)
}
