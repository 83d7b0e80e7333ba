//! What every workload shares: its arguments, the samples it hands back,
//! and how those become the metrics named in `BENCHMARK.json`.

use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "amplab_colfile",
    "plan_corpus",
    "service_mixed",
    "bounded_spill",
];

/// Set-up is repeated and its median reported, so that one slow disk
/// write does not decide `setup_s`.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// The measured loop runs whole passes until this much time is spent.
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one measured pass, for a quick CI check.
    pub smoke: bool,
    /// Executor threads, and service clients: the machine's cores.
    pub nproc: usize,
}

impl Args {
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.0 } else { self.seconds })
    }

    /// Scratch directory of this run, inside the checkout.
    pub fn work_dir(&self) -> String {
        let dir = format!("target/benchmark/{}-{}", self.workload, std::process::id());
        std::fs::create_dir_all(&dir).expect("create work dir");
        dir
    }
}

/// The kind of work a query mostly is; each has its end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Scan,
    Agg,
    Join,
    Sort,
    Window,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Scan,
        Class::Agg,
        Class::Join,
        Class::Sort,
        Class::Window,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Class::Scan => "scan_ms",
            Class::Agg => "agg_ms",
            Class::Join => "join_ms",
            Class::Sort => "sort_ms",
            Class::Window => "window_ms",
        }
    }
}

/// Measured latencies of one query shape, in milliseconds.
pub struct Samples {
    pub class: Class,
    pub ms: Vec<f64>,
}

impl Samples {
    pub fn new(class: Class) -> Samples {
        Samples {
            class,
            ms: Vec::new(),
        }
    }
}

/// A metric value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(
    metrics: &mut Metrics,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    n: usize,
) {
    metrics.insert(name.into(), Metric { value, unit, n });
}

/// What one workload run hands back.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub queries: Vec<Samples>,
    /// Wall and process CPU seconds of the measured loop, and the peak
    /// resident memory of a process that made one measured pass.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
    /// Queries attempted, and those that errored, were refused, or
    /// failed their correctness check (warm-up included).
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
    /// Per-layer metrics and the spans behind them; the traced run only.
    pub layers: Metrics,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(setup_s: Vec<f64>, queries: Vec<Samples>) -> Outcome {
        Outcome {
            setup_s,
            queries,
            wall_s: 0.0,
            cpu_s: 0.0,
            rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layers: Metrics::new(),
            tracer: None,
        }
    }

    /// Count one checked query.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }

    fn all_ms(&self) -> Vec<f64> {
        self.queries
            .iter()
            .flat_map(|q| q.ms.iter().copied())
            .collect()
    }

    /// The end-to-end metrics, one definition for every workload: a class
    /// metric is the sum over the workload's queries of that class of
    /// each query's median latency.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::new();
        let all = self.all_ms();
        put(
            &mut m,
            "setup_s",
            median(&self.setup_s),
            "s",
            self.setup_s.len(),
        );
        put(
            &mut m,
            "queries_per_s",
            all.len() as f64 / self.wall_s,
            "1/s",
            all.len(),
        );
        put(&mut m, "latency_p50_ms", median(&all), "ms", all.len());
        for class in Class::ALL {
            let of_class: Vec<&Samples> = self
                .queries
                .iter()
                .filter(|q| q.class == class && !q.ms.is_empty())
                .collect();
            let total = of_class.iter().map(|q| median(&q.ms)).sum();
            let n = of_class.iter().map(|q| q.ms.len()).sum();
            put(&mut m, class.metric(), total, "ms", n);
        }
        put(
            &mut m,
            "cpu_ms_per_query",
            self.cpu_s * 1e3 / all.len() as f64,
            "ms",
            all.len(),
        );
        put(&mut m, "peak_rss_mb", self.rss_mb, "MB", 1);
        m
    }

    /// Metrics every traced run reports whatever the workload.
    pub fn common_layers(&mut self) {
        let all = self.all_ms();
        // Zero when fewer than ten samples lie beyond the 95th percentile.
        let p95 = tail_percentile(&all, 95.0).unwrap_or(0.0);
        put(&mut self.layers, "latency_p95_ms", p95, "ms", all.len());
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        put(
            &mut self.layers,
            "error_rate",
            rate,
            "ratio",
            self.attempted as usize,
        );
    }
}

/// Runs whole passes until the time budget is spent; at least one.
pub struct PassClock {
    start: Instant,
    budget: Duration,
    cpu_start: f64,
}

impl PassClock {
    pub fn start(budget: Duration) -> PassClock {
        PassClock {
            start: Instant::now(),
            budget,
            cpu_start: cpu_seconds(),
        }
    }

    /// Call after every pass: is the budget spent?
    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Record wall seconds, CPU seconds, and this process's peak memory.
    /// The peak is the reported `peak_rss_mb` only for a `--smoke` run,
    /// whose work is fixed; see `memory_probe` in `main.rs`.
    pub fn stop(&self, out: &mut Outcome) {
        out.wall_s = self.start.elapsed().as_secs_f64();
        out.cpu_s = cpu_seconds() - self.cpu_start;
        out.rss_mb = peak_rss_mb();
    }
}

/// Time `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// User + system CPU seconds of this process so far (Linux `/proc`;
/// zero elsewhere).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s.
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// High-water mark of this process's resident memory (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metrics_sum_the_medians_of_their_queries() {
        let mut a = Samples::new(Class::Scan);
        a.ms = vec![1.0, 2.0, 9.0];
        let mut b = Samples::new(Class::Scan);
        b.ms = vec![10.0];
        let mut c = Samples::new(Class::Join);
        c.ms = vec![5.0, 7.0];
        let mut out = Outcome::new(vec![0.5, 0.7, 0.6], vec![a, b, c]);
        out.wall_s = 3.0;
        out.cpu_s = 1.2;
        let m = out.end_to_end();
        assert_eq!(m["scan_ms"].value, 12.0);
        assert_eq!(m["scan_ms"].n, 4);
        assert_eq!(m["join_ms"].value, 6.0);
        assert_eq!(m["setup_s"].value, 0.6);
        assert_eq!(m["queries_per_s"].value, 2.0);
        assert_eq!(m["cpu_ms_per_query"].value, 200.0);
        assert_eq!(m["latency_p50_ms"].value, 6.0);
    }

    #[test]
    fn failed_checks_are_counted_and_kept() {
        let mut out = Outcome::new(vec![1.0], Vec::new());
        out.check("q1", Ok(()));
        out.check("q2", Err("wrong".into()));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, vec!["q2: wrong"]);
    }
}
