//! The repo's benchmark: four workloads, ten end-to-end metrics, and
//! per-layer attribution measured from outside the engine. See
//! `README.md` beside this file and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark                       all four workloads, untraced then traced
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                                 one run; last line is the driver's JSON
//! benchmark compare A.json B.json
//! ```

mod analytic;
mod corpus;
mod data;
mod layers;
mod probes;
mod reference;
mod report;
mod run;
mod service_mixed;
mod stats;
mod trace;

use run::{Args, Metrics, WORKLOADS};
use service::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--out FILE] [--smoke] [--runs R]\n       benchmark compare A.json B.json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    runs: usize,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        smoke: false,
        runs: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; known: {WORKLOADS:?}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => cli.out = Some(value("a file")?),
            "--smoke" => cli.smoke = true,
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                cli.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds.is_nan() || cli.seconds < 0.0 || cli.runs == 0 {
        return Err("--seconds must not be negative and --runs at least 1".into());
    }
    Ok(cli)
}

fn print_metrics(metrics: &Metrics) {
    for (name, m) in metrics {
        println!("  {name:<44} {:>16.4} {:<6} n={}", m.value, m.unit, m.n);
    }
}

/// Run one workload in this process. The last line printed is the JSON
/// the driver reads.
fn run_workload(cli: &Cli, workload: &str) -> ExitCode {
    let args = Args {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    // First, and alone on the machine: see `memory_probe`.
    let probe = (!cli.trace && !cli.smoke).then(|| memory_probe(cli, workload));
    let mut out = match workload {
        "amplab_colfile" => analytic::run(&args, false),
        "bounded_spill" => analytic::run(&args, true),
        "plan_corpus" => corpus::run(&args),
        _ => service_mixed::run(&args),
    };
    match probe {
        Some(Ok(mb)) => out.rss_mb = mb,
        Some(Err(why)) => out.check("memory probe", Err(why)),
        None => {}
    }
    let (part, metrics) = if cli.trace {
        out.common_layers();
        // A probe measures a layer, not a workload: the same in each.
        let tables = data::generate(args.seed, data::PAGES, data::VISITS);
        probes::run(&tables, &mut out.layers);
        if let Some(tracer) = out.tracer.take() {
            std::fs::create_dir_all("target/benchmark").expect("create target/benchmark");
            tracer
                .write_jsonl(&format!("target/benchmark/trace-{workload}.jsonl"))
                .expect("write span file");
        }
        (
            "layers",
            report::all_layers(std::mem::take(&mut out.layers)),
        )
    } else {
        ("e2e", out.end_to_end())
    };
    println!(
        "{workload} seed={} nproc={} trace={} measured {:.1} s, {} queries checked, {} failed",
        args.seed, args.nproc, cli.trace, out.wall_s, out.attempted, out.failed
    );
    for failure in &out.failures {
        println!("  FAILED {failure}");
    }
    print_metrics(&metrics);
    if let Some(path) = &cli.out {
        let json = report::workload_json(out.attempted, out.failed, part, &metrics);
        std::fs::write(path, json.encode()).expect("write --out file");
    }
    println!(
        "{}",
        report::driver_line(out.attempted, out.failed, &metrics)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `peak_rss_mb`: the memory high-water mark of a fresh process that
/// makes one set-up, the warm-up and one measured pass (`--smoke`), so
/// it is the same work on any commit however many passes a run fits in.
/// That process gets a single malloc arena: with glibc's arena per
/// thread, the peak of `service_mixed` moves by a fifth from run to run
/// with which thread happened to free into which arena; with one it
/// repeats to a hundredth. The timed loops keep the default allocator.
fn memory_probe(cli: &Cli, workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--smoke", "--trace", "0"])
        .args(["--seed", &cli.seed.to_string()])
        .env("MALLOC_ARENA_MAX", "1")
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("exited with {}: {stdout}", output.status));
    }
    let line = Json::parse(stdout.lines().last().unwrap_or("")).map_err(|e| e.to_string())?;
    let peak = line.get("metrics").and_then(|m| m.get("peak_rss_mb"));
    report::number(peak.and_then(|m| m.get("value"))).ok_or("no peak_rss_mb in its result".into())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Median over the runs of each metric, with the runs' interquartile
/// spread beside it once there are enough runs to cut quartiles.
fn merge_runs(runs: &[Json], part: &str) -> Json {
    let mut merged = BTreeMap::new();
    let Some(Json::Obj(first)) = runs[0].get(part) else {
        return Json::Obj(merged);
    };
    for (name, metric) in first {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| report::number(r.get(part)?.get(name)?.get("value")))
            .collect();
        let Json::Obj(mut fields) = metric.clone() else {
            continue;
        };
        fields.insert("value".into(), Json::Num(stats::median(&values)));
        if values.len() >= 4 && stats::median(&values) != 0.0 {
            fields.insert("spread".into(), Json::Num(stats::iqr_share(&values)));
        }
        merged.insert(name.clone(), Json::Obj(fields));
    }
    Json::Obj(merged)
}

/// Each workload in a fresh process of its own (clean allocator, clean
/// caches, a peak RSS that is its own), untraced then traced, one after
/// the other. Writes the result file and returns whether all was correct.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    std::fs::create_dir_all("target/benchmark").expect("create target/benchmark");
    let mut workloads = BTreeMap::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let mut entry = BTreeMap::new();
        let (mut attempted, mut failed) = (0i64, 0i64);
        for (part, trace) in [("e2e", "0"), ("layers", "1")] {
            let mut runs = Vec::new();
            for run in 0..cli.runs {
                let part_file = format!("target/benchmark/part-{}.json", std::process::id());
                let mut child = Command::new(&exe);
                child.args([
                    "--workload",
                    workload,
                    "--trace",
                    trace,
                    "--out",
                    &part_file,
                ]);
                child.args(["--seed", &(cli.seed + run as u64).to_string()]);
                child.args(["--seconds", &cli.seconds.to_string()]);
                if cli.smoke {
                    child.arg("--smoke");
                }
                let status = child.status().expect("run workload process");
                correct &= status.success();
                let Ok(text) = std::fs::read_to_string(&part_file) else {
                    continue;
                };
                std::fs::remove_file(&part_file).expect("remove part file");
                let json = Json::parse(&text).expect("part file parses");
                attempted += json.get("attempted").and_then(Json::as_i64).unwrap_or(0);
                failed += json.get("failed").and_then(Json::as_i64).unwrap_or(0);
                runs.push(json);
            }
            if !runs.is_empty() {
                entry.insert(part.to_string(), merge_runs(&runs, part));
            }
        }
        entry.insert("attempted".into(), Json::Int(attempted));
        entry.insert("failed".into(), Json::Int(failed));
        workloads.insert(workload.to_string(), Json::Obj(entry));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = Json::obj([
        ("commit", Json::Str(git_commit())),
        ("nproc", Json::Int(nproc as i64)),
        ("seed", Json::Int(cli.seed as i64)),
        ("seconds", Json::Num(cli.seconds)),
        ("runs", Json::Int(cli.runs as i64)),
        ("claim", Json::Null),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| "target/benchmark/result.json".into());
    std::fs::write(&path, result.encode()).expect("write result file");
    println!("wrote {path}; all outputs correct: {correct}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(report::compare(&load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare_files(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse_cli(&argv) {
        Ok(cli) => match cli.workload.clone() {
            Some(workload) => run_workload(&cli, &workload),
            None => run_all(&cli),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let c = cli(&[
            "--workload",
            "plan_corpus",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("plan_corpus"), 7, 10.0, true)
        );
        assert!(!cli(&["--trace", "0", "--seed", "3"]).unwrap().trace);
        assert!(cli(&["--trace", "--smoke"]).unwrap().trace);
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }
}
