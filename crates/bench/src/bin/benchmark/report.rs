//! The names `BENCHMARK.json` promises, the one result schema, and
//! `benchmark compare`.

use crate::run::{Metric, Metrics};
use service::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit, which way is better, and the share of
/// the base by which it may worsen before it counts as a regression.
///
/// Every timing has the widest bound allowed. Ten runs of one binary
/// spread by up to 8 % (quartile distance over median, `plan_corpus`),
/// and the sandbox's speed drifts further over minutes: two ten-run sets
/// of `plan_corpus` half an hour apart had medians 14 % apart. A bound
/// must be three times the spread to tell a regression from that.
/// Memory comes from a process of its own with a single malloc arena
/// (`memory_probe` in `main.rs`) and repeats to 1-3 %.
pub const END_TO_END: [(&str, &str, Better, f64); 10] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("queries_per_s", "1/s", Better::Higher, 0.25),
    ("latency_p50_ms", "ms", Better::Lower, 0.25),
    ("scan_ms", "ms", Better::Lower, 0.25),
    ("agg_ms", "ms", Better::Lower, 0.25),
    ("join_ms", "ms", Better::Lower, 0.25),
    ("sort_ms", "ms", Better::Lower, 0.25),
    ("window_ms", "ms", Better::Lower, 0.25),
    ("cpu_ms_per_query", "ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.10),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// Per-layer metrics, with their units. Every traced run reports every
/// one; zero means the workload does not pass through that layer.
pub const PER_LAYER: [(&str, &str); 88] = [
    ("latency_p95_ms", "ms"),
    ("error_rate", "ratio"),
    ("sql.parse_ms", "ms"),
    ("catalyst.analyze_ms", "ms"),
    ("catalyst.plan_ms", "ms"),
    ("catalyst.plan_share", "ratio"),
    ("core.lower_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.op.scan_ms", "ms"),
    ("core.op.filter_project_ms", "ms"),
    ("core.op.aggregate_ms", "ms"),
    ("core.op.join_ms", "ms"),
    ("core.op.sort_ms", "ms"),
    ("core.op.window_ms", "ms"),
    ("core.op.other_ms", "ms"),
    ("core.rows_scanned", "count"),
    ("core.batches", "count"),
    ("core.spill_count", "count"),
    ("core.spill_bytes", "B"),
    ("core.mem_peak_bytes", "B"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("engine.tasks_launched", "count"),
    ("engine.stages_run", "count"),
    ("engine.task_time_ms", "ms"),
    ("engine.shuffle_records_written", "count"),
    ("engine.shuffle_records_read", "count"),
    ("engine.sched_overhead_ms", "ms"),
    ("columnar.encode_ns_per_row", "ns"),
    ("columnar.encode.floor_ns_per_row", "ns"),
    ("columnar.decode_ns_per_row", "ns"),
    ("columnar.decode.floor_ns_per_row", "ns"),
    ("columnar.spill_encode_mb_s", "MB/s"),
    ("columnar.spill_encode.floor_mb_s", "MB/s"),
    ("columnar.spill_decode_mb_s", "MB/s"),
    ("columnar.spill_decode.floor_mb_s", "MB/s"),
    ("datasources.colfile_write_mb_s", "MB/s"),
    ("datasources.colfile_write.floor_mb_s", "MB/s"),
    ("datasources.colfile_decode_ns_per_row", "ns"),
    ("datasources.colfile_decode.floor_ns_per_row", "ns"),
    ("datasources.colfile_bytes_per_row", "B"),
    ("datasources.groups_read", "count"),
    ("datasources.groups_skipped", "count"),
    ("service.shape.point.p50_ms", "ms"),
    ("service.shape.agg_small.p50_ms", "ms"),
    ("service.shape.topn.p50_ms", "ms"),
    ("service.shape.agg_visits.p50_ms", "ms"),
    ("service.shape.big_result.p50_ms", "ms"),
    ("service.shape.join_top.p50_ms", "ms"),
    ("service.shape.window_rank.p50_ms", "ms"),
    ("service.inproc.point.p50_ms", "ms"),
    ("service.inproc.agg_small.p50_ms", "ms"),
    ("service.inproc.topn.p50_ms", "ms"),
    ("service.inproc.agg_visits.p50_ms", "ms"),
    ("service.inproc.big_result.p50_ms", "ms"),
    ("service.inproc.join_top.p50_ms", "ms"),
    ("service.inproc.window_rank.p50_ms", "ms"),
    ("service.wire_overhead_ms", "ms"),
    ("service.query_call_ms", "ms"),
    ("service.fetch_call_ms", "ms"),
    ("service.json_encode_ns_per_row", "ns"),
    ("service.json_parse_ns_per_row.1k", "ns"),
    ("service.json_parse_ns_per_row.4k", "ns"),
    ("service.json_parse_ns_per_row.16k", "ns"),
    ("service.json_parse.floor_ns_per_row", "ns"),
    ("service.frame_roundtrip_us", "us"),
    ("service.queued_by_admission", "count"),
    ("service.rejected", "count"),
    ("service.cache_evictions", "count"),
    ("query.1a.ms", "ms"),
    ("query.1b.ms", "ms"),
    ("query.1c.ms", "ms"),
    ("query.2a.ms", "ms"),
    ("query.2b.ms", "ms"),
    ("query.2c.ms", "ms"),
    ("query.3a.ms", "ms"),
    ("query.3b.ms", "ms"),
    ("query.3c.ms", "ms"),
    ("query.sort.ms", "ms"),
    ("query.window.ms", "ms"),
    ("corpus.aggregates.ms", "ms"),
    ("corpus.joins.ms", "ms"),
    ("corpus.scalar.ms", "ms"),
    ("corpus.setops.ms", "ms"),
    ("corpus.stats.ms", "ms"),
    ("corpus.windows.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.phase_cover_pct", "%"),
];

/// Every per-layer name at zero, overlaid with what the run measured.
/// Panics on a measured name the list does not know: the list is what
/// `BENCHMARK.json` promises.
pub fn all_layers(measured: Metrics) -> Metrics {
    let mut all: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                Metric {
                    value: 0.0,
                    unit,
                    n: 0,
                },
            )
        })
        .collect();
    for (name, metric) in measured {
        let slot = all
            .get_mut(&name)
            .unwrap_or_else(|| panic!("unlisted per-layer metric {name}"));
        assert_eq!(slot.unit, metric.unit, "unit of {name}");
        *slot = metric;
    }
    all
}

fn metrics_json(metrics: &Metrics, with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ];
                if with_n {
                    fields.push(("n", Json::Int(m.n as i64)));
                }
                (name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The last line of a single-workload run, in the shape the driver reads.
pub fn driver_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .encode()
}

/// One workload's part of a result file.
pub fn workload_json(attempted: u64, failed: u64, part: &str, metrics: &Metrics) -> Json {
    Json::Obj(BTreeMap::from([
        ("attempted".to_string(), Json::Int(attempted as i64)),
        ("failed".to_string(), Json::Int(failed as i64)),
        (part.to_string(), metrics_json(metrics, true)),
    ]))
}

pub fn number(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Num(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's run-to-run spread is wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// `a` is the base. `spread` is the wider of the two sides' interquartile
/// ranges as a share of their medians, when the files carry one.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print one row per workload × end-to-end metric. Returns whether B is
/// acceptable: no `worse`, and no higher error rate.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut acceptable = true;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for workload in crate::run::WORKLOADS {
        let side = |file: &Json| file.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            continue;
        };
        for (name, unit, better, bound) in END_TO_END {
            let field = |w: &Json, f: &str| {
                number(
                    w.get("e2e")
                        .and_then(|e| e.get(name))
                        .and_then(|m| m.get(f)),
                )
            };
            let (Some(va), Some(vb)) = (field(&wa, "value"), field(&wb, "value")) else {
                continue;
            };
            let spread = match (field(&wa, "spread"), field(&wb, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(va, vb, better, bound, spread);
            acceptable &= v != Verdict::Worse;
            println!(
                "{workload:<16} {name:<18} {va:>12.4} {vb:>12.4} {:>9.4} {bound:>6.2}  {} ({unit}, base A)",
                vb / va,
                format!("{v:?}").to_lowercase(),
            );
        }
        let rate = |w: &Json| {
            number(w.get("failed")).unwrap_or(0.0)
                / number(w.get("attempted")).unwrap_or(1.0).max(1.0)
        };
        let (ra, rb) = (rate(&wa), rate(&wb));
        let v = if rb > ra { "worse" } else { "same" };
        acceptable &= rb <= ra;
        println!(
            "{workload:<16} {:<18} {ra:>12.6} {rb:>12.6} {:>9} {:>6}  {v} (ratio, any increase)",
            "error_rate", "-", "0"
        );
    }
    acceptable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        use Better::*;
        assert_eq!(verdict(100.0, 109.0, Lower, 0.10, None), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, Lower, 0.10, None), Verdict::Better);
        assert_eq!(verdict(100.0, 89.0, Higher, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(100.0, 111.0, Higher, 0.10, None), Verdict::Better);
        assert_eq!(
            verdict(100.0, 111.0, Lower, 0.10, Some(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 111.0, Lower, 0.10, Some(0.2)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_fails_on_worse_and_on_more_errors() {
        let file = |qps: f64, failed: i64| {
            let e2e = Json::obj([(
                "queries_per_s",
                Json::obj([("value", Json::Num(qps)), ("unit", Json::Str("1/s".into()))]),
            )]);
            let w = Json::obj([
                ("attempted", Json::Int(100)),
                ("failed", Json::Int(failed)),
                ("e2e", e2e),
            ]);
            Json::obj([("workloads", Json::obj([("plan_corpus", w)]))])
        };
        assert!(compare(&file(100.0, 0), &file(95.0, 0)));
        assert!(!compare(&file(100.0, 0), &file(70.0, 0)));
        assert!(!compare(&file(100.0, 0), &file(100.0, 1)));
    }

    #[test]
    fn names_are_unique_and_the_driver_line_has_the_four_keys() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|l| l.0)
            .chain(END_TO_END.iter().map(|e| e.0))
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
        let line = driver_line(5, 0, &all_layers(Metrics::new()));
        let parsed = Json::parse(&line).expect("valid JSON");
        let Json::Obj(map) = &parsed else {
            panic!("not an object")
        };
        assert_eq!(
            map.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    }

    /// `BENCHMARK.json` at the root of the repo must promise exactly the
    /// names, units, directions and bounds this program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let mut dir = std::env::current_dir().expect("cwd");
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
        let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).expect("read");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| file.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let text_of =
            |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect("string").to_string();
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    number(m.get("bound")).expect("bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.into(), u.into(), format!("{b:?}").to_lowercase(), bound))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, crate::run::WORKLOADS);
    }
}
