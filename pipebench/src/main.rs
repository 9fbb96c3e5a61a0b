//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit, then a provenance line, then, as
//! the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! output fails a correctness check, 2 on bad arguments or a run that
//! could not complete. Usually started through `pipebench/run.py`, which
//! builds it and fills in the commit and compiler provenance.

use pipebench::workload::{Outcome, WorkloadKind};
use pipebench::{run, Limit, Metric, RunReport};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadKind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON string literal (the values written here are plain ASCII).
fn js(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".to_owned(),
            '\\' => "\\\\".to_owned(),
            c if c.is_control() => format!("\\u{:04x}", u32::from(c)),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

fn metrics_json(metrics: &[(&str, Metric)]) -> Result<String, String> {
    let fields: Result<Vec<String>, String> = metrics
        .iter()
        .map(|(name, m)| {
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            Ok(format!("{}: {{\"value\": {}, \"unit\": {}}}", js(name), m.value, js(m.unit)))
        })
        .collect();
    Ok(format!("{{{}}}", fields?.join(", ")))
}

fn provenance(report: &RunReport, args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let taxonomy = |counts: BTreeMap<Outcome, usize>| {
        let fields: Vec<String> = Outcome::ALL
            .iter()
            .map(|o| format!("{}: {}", js(o.name()), counts.get(o).copied().unwrap_or(0)))
            .collect();
        fields.join(", ")
    };
    let samples: Vec<String> =
        report.sample_counts().iter().map(|(k, v)| format!("{}: {v}", js(k))).collect();
    let tail = report
        .tail_percentile()
        .map_or("null".to_owned(), |(p, n)| format!("{{\"percentile\": {p}, \"samples\": {n}}}"));
    let fail_frac = report.failed() as f64 / report.attempted() as f64;
    let mut fields = vec![
        format!("\"workload\": {}", js(report.workload.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!("\"nproc\": {nproc}"),
        format!("\"solver_threads\": {}", report.solver_threads),
        format!("\"commit\": {}", js(&env("PIPEBENCH_COMMIT"))),
        format!("\"rustc\": {}", js(&env("PIPEBENCH_RUSTC"))),
        format!("\"digest\": \"{:016x}\"", report.digest()),
        format!("\"fail_frac\": {fail_frac}"),
        format!("\"outcomes\": {{{}}}", taxonomy(report.outcomes())),
        format!("\"abandoned_attempts\": {{{}}}", taxonomy(report.abandoned_outcomes())),
        format!("\"samples\": {{{}}}", samples.join(", ")),
        format!("\"op_tail\": {tail}"),
    ];
    if report.traced {
        fields.push(format!("\"dominant_layer\": {}", js(report.dominant_layer())));
        fields.push(format!("\"layer_coverage\": {}", report.layer_coverage()));
    }
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let limit = Limit::Time(Duration::from_secs_f64(args.seconds));
    let report = match run(args.workload, args.seed, limit, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.trace { report.per_layer() } else { report.end_to_end() };
    let metrics_line = metrics.and_then(|m| metrics_json(&m).map(|line| (m, line)));
    let (metrics, metrics_line) = match metrics_line {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, m) in &metrics {
        println!("{:<10} {name:<30} {} {}", args.workload.name(), m.value, m.unit);
    }
    if let Some((k, r)) = report.first_failure() {
        eprintln!("request {k} ({}) ended {}: {}", r.kind, r.outcome.name(), r.detail);
    }
    println!("{}", provenance(&report, &args));
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_line}}}",
        report.attempted(),
        report.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
