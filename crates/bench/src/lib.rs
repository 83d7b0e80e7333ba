//! Benchmark harness reproducing every figure in the evaluation section
//! (§6) of *Spark SQL: Relational Data Processing in Spark*:
//!
//! * **Figure 4** (`fig4` bin): evaluating `x+x+x` — interpreted per
//!   row vs a vectorized kernel (this engine's code generation) vs a
//!   hand-written loop.
//! * **Figure 8** (`fig8` bin): the AMPLab big data benchmark, Shark-like
//!   vs Spark SQL vs a hand-written native ("Impala-like") baseline.
//! * **Figure 9** (`fig9` bin): a distributed aggregation via
//!   dynamically-typed RDD code ("Python"), typed RDD code ("Scala"), and
//!   the DataFrame API.
//! * **Figure 10** (`fig10` bin): filter + word count as two separate jobs
//!   with a disk handoff vs one integrated DataFrame pipeline.
//!
//! Plus `mem_footprint` (the §3.6 columnar-cache claim), `range_join`
//! (§7.2) and `ablations` (per-feature on/off switches).

pub mod amplab;
pub mod dynvalue;
pub mod textgen;

/// Format a duration as fractional milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Run `f` `n` times, return the median duration.
pub fn median_time<R>(n: usize, mut f: impl FnMut() -> R) -> std::time::Duration {
    let mut times: Vec<std::time::Duration> = (0..n.max(1)).map(|_| time(&mut f).1).collect();
    times.sort();
    times[times.len() / 2]
}
