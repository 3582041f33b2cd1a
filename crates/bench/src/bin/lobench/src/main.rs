//! `lobench` — the repository's benchmark: four lobd workloads measured
//! from outside, end to end and layer by layer. See `README.md` beside
//! this package for the metric glossary and how to read the output.
//!
//! ```text
//! lobench --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--out <file>]
//! lobench --smoke
//! lobench --repeat-check [--seed <u64>] [--seconds <s>]
//! ```
//!
//! A run prints every metric by name with its unit, and as the last line
//! of its standard output one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics. Exit status 0 means every byte read was right.

mod backend;
mod lobd;
mod model;
mod pace;
mod phases;
mod probes;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use backend::R;
use pglo_heap::json::{self, Value};
use report::{LayerInputs, Report};
use runner::Opts;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--smoke` divides every size by this.
const SMOKE_SCALE: usize = 50;
/// Everything a run writes lives under this directory of the checkout.
const DATA_DIR: &str = ".lobench_data";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    repeat_check: bool,
    /// Internal: one set-up in this process, under this directory.
    setup_only: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lobench --workload <{}> --seed <u64> [--seconds <s>] [--trace <0|1>] [--out <file>]\n\
         \x20      lobench --smoke\n\
         \x20      lobench --repeat-check [--seed <u64>] [--seconds <s>]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: workloads::SIZED_FOR_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        repeat_check: false,
        setup_only: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                a.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite())?
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        a.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--out" => a.out = Some(it.next()?),
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = Some(PathBuf::from(it.next()?)),
            "--repeat-check" => a.repeat_check = true,
            w if !w.starts_with('-') && a.workload.is_none() => a.workload = Some(arg),
            _ => return None,
        }
    }
    Some(a)
}

/// `BENCHMARK.json` from the directory the run starts in (the root of
/// the checkout), if it is there.
fn benchmark_json() -> Option<Value> {
    json::parse(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

fn named(v: &Value, list: &str) -> Vec<(String, Option<f64>)> {
    match v.get(list) {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|m| {
                let bound = match m.get("bound") {
                    Some(Value::Num(b)) => Some(*b),
                    _ => None,
                };
                Some((m.get("name")?.as_str()?.to_string(), bound))
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn bounds() -> HashMap<String, f64> {
    benchmark_json()
        .map(|v| named(&v, "end_to_end").into_iter().filter_map(|(n, b)| Some((n, b?))).collect())
        .unwrap_or_default()
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: bool, scale: usize) -> R<Report> {
    let plan = workloads::plan(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let plan = if scale > 1 { plan.scaled(scale) } else { plan };
    let root = PathBuf::from(DATA_DIR).join(format!("{name}-{}", std::process::id()));
    let opts = Opts {
        seed,
        seconds,
        trace,
        scale,
        root: root.clone(),
        trace_file: PathBuf::from(DATA_DIR).join("lobench.trace.jsonl"),
    };
    let result = (|| {
        let data = runner::run(&plan, &opts)?;
        if !trace {
            return Ok(report::build(&plan, seed, &data, None));
        }
        let chunks = (plan.object_bytes / pglo_core::CHUNK_SIZE).max(1);
        let probes = probes::run(&root.join("probe"), chunks, pglo_core::CHUNK_SIZE, seed)?;
        Ok(report::build(
            &plan,
            seed,
            &data,
            Some(LayerInputs { probes: &probes, alloc_oid_ns: data.alloc_oid_ns }),
        ))
    })();
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// All four workloads at 1/50 size, checking the shape of the output
/// against `BENCHMARK.json`: ready to be a CI step.
fn smoke() -> R<()> {
    let bench = benchmark_json().ok_or("--smoke needs BENCHMARK.json in the current directory")?;
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let lists = [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)];
    for (list, limit) in lists {
        let names = named(&bench, list);
        if names.is_empty() || names.len() > limit {
            return Err(format!("BENCHMARK.json {list}: {} entries, limit {limit}", names.len()));
        }
        if let Some((bad, _)) = names.iter().find(|(n, _)| !valid(n)) {
            return Err(format!("BENCHMARK.json {list}: bad name {bad:?}"));
        }
    }
    let listed: Vec<String> = named(&bench, "workloads").into_iter().map(|(n, _)| n).collect();
    if listed != workloads::NAMES {
        return Err(format!("BENCHMARK.json workloads {listed:?} are not {:?}", workloads::NAMES));
    }
    for name in workloads::NAMES {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run_one(name, 1, 0.4, trace, SMOKE_SCALE)?;
            if !report.correct {
                return Err(format!(
                    "{name}: {} of {} ops failed: {:?}",
                    report.failed, report.attempted, report.errors
                ));
            }
            let line = report.result_line(trace);
            let parsed = json::parse(&line)
                .map_err(|e| format!("{name}: result line does not parse: {e:?}"))?;
            let metrics = parsed.get("metrics").ok_or("result line has no metrics")?;
            let mut listed: Vec<String> = named(&bench, list).into_iter().map(|(n, _)| n).collect();
            for metric in &listed {
                match metrics.get(metric).and_then(|m| m.get("value")) {
                    Some(Value::Num(v)) if v.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "{name}: metric {metric} of BENCHMARK.json {list} is not emitted"
                        ))
                    }
                }
            }
            // The names were checked above, so equal lists mean valid names.
            let emitted = if trace {
                [&report.client[..], &report.per_layer[..]]
            } else {
                [&report.end_to_end[..], &[]]
            };
            let mut emitted: Vec<String> =
                emitted.iter().flat_map(|ms| ms.iter()).map(|m| m.name.clone()).collect();
            listed.sort();
            emitted.sort();
            if emitted != listed {
                return Err(format!(
                    "{name}: emits {emitted:?}, BENCHMARK.json {list} lists {listed:?}"
                ));
            }
        }
        println!("smoke {name}: ok");
    }
    Ok(())
}

/// One run in a process of its own, as the driver runs it: the metrics
/// of its result line and how many ops failed. (Runs repeated in one
/// process would add up in `rss_peak_mib`.)
fn run_child(name: &str, seed: u64, seconds: f64) -> R<(Vec<(String, f64)>, u64)> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(line)
        .map_err(|_| format!("{name}: no result line: {}", String::from_utf8_lossy(&out.stderr)))?;
    let value =
        |m: &str| match parsed.get("metrics").and_then(|ms| ms.get(m)).and_then(|m| m.get("value"))
        {
            Some(Value::Num(v)) => Ok(*v),
            _ => Err(format!("{name}: no metric {m} in the result line")),
        };
    let metrics =
        report::END_TO_END.iter().map(|m| Ok((m.to_string(), value(m)?))).collect::<R<Vec<_>>>()?;
    Ok((metrics, parsed.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX)))
}

/// Two full sets on this binary; every (metric, workload) pair must agree
/// within the metric's bound.
fn repeat_check(seed: u64, seconds: f64) -> R<bool> {
    let bounds = bounds();
    if bounds.is_empty() {
        return Err("--repeat-check needs BENCHMARK.json in the current directory".into());
    }
    let mut sets = Vec::new();
    for set in 1..=2 {
        let mut runs = Vec::new();
        for name in workloads::NAMES {
            eprintln!("repeat-check: set {set} of 2, {name}");
            runs.push(run_child(name, seed, seconds)?);
        }
        sets.push(runs);
    }
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), b) in workloads::NAMES.iter().zip(&sets[0]).zip(&sets[1]) {
        for ((metric, first), (_, second)) in a.0.iter().zip(&b.0) {
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let diff = (second - first).abs() / first.abs().max(f64::MIN_POSITIVE);
            let within = diff <= bound;
            ok &= within;
            println!(
                "{name:<14} {metric:<16} {first:>14.4} {second:>14.4} {:>8.2}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDS" }
            );
        }
        println!("{name:<14} {:<16} {:>14} {:>14}", "failed", a.1, b.1);
        ok &= a.1 == 0 && b.1 == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    // Before any thread or process is started: they inherit the CPU.
    pace::cpus();
    let outcome = if let Some(root) = args.setup_only {
        let plan = args.workload.as_deref().and_then(workloads::plan);
        let Some(plan) = plan else { return usage() };
        let opts = Opts {
            seed: args.seed,
            seconds: 0.0,
            trace: false,
            scale: 1,
            root,
            trace_file: PathBuf::new(),
        };
        runner::set_up_only(&plan, &opts).map(|(scaled, raw)| {
            println!("{scaled} {raw}");
            true
        })
    } else if args.smoke {
        smoke().map(|()| true)
    } else if args.repeat_check {
        repeat_check(args.seed, args.seconds)
    } else {
        let Some(name) = &args.workload else { return usage() };
        if !workloads::NAMES.contains(&name.as_str()) {
            return usage();
        }
        run_one(name, args.seed, args.seconds, args.trace, 1).and_then(|report| {
            print!("{}", report.render(&bounds()));
            let line = report.result_line(args.trace);
            if let Some(out) = &args.out {
                std::fs::write(out, format!("{line}\n"))
                    .map_err(|e| format!("write {out}: {e}"))?;
            }
            println!("{line}");
            Ok(report.correct)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lobench: {e}");
            ExitCode::FAILURE
        }
    }
}
