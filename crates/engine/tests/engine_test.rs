//! Integration tests for the execution engine: transformations, shuffles,
//! joins, sorting, caching, and fault tolerance.

use engine::metrics::Metrics;
use engine::pair::SortedPairRdd;
use engine::scheduler::collect_shuffle_dependencies;
use engine::{PairRdd, SparkContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn map_filter_pipeline() {
    let sc = SparkContext::new(4);
    let rdd = sc.parallelize((0..1000i64).collect(), 8);
    let out = rdd.map(|x| x * 2).filter(|x| x % 3 == 0).count();
    assert_eq!(
        out,
        (0..1000i64).filter(|x| (x * 2) % 3 == 0).count() as u64
    );
}

#[test]
fn flat_map_and_union() {
    let sc = SparkContext::new(2);
    let a = sc
        .parallelize(vec!["a b", "c"], 2)
        .flat_map(|s: &str| s.split(' ').map(|w| w.to_string()).collect::<Vec<_>>());
    let b = sc.parallelize(vec!["d".to_string()], 1);
    let mut out = a.union(&b).collect();
    out.sort();
    assert_eq!(out, vec!["a", "b", "c", "d"]);
}

#[test]
fn reduce_by_key_matches_sequential() {
    let sc = SparkContext::new(4);
    let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i % 100, i)).collect();
    let mut expected = std::collections::HashMap::new();
    for (k, v) in &pairs {
        *expected.entry(*k).or_insert(0i64) += v;
    }
    let rdd = sc.parallelize(pairs, 16);
    let mut got = rdd.reduce_by_key(|a, b| a + b, 8).collect();
    got.sort();
    let mut want: Vec<(i64, i64)> = expected.into_iter().collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn group_by_key_collects_all_values() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(vec![(1, "a"), (2, "b"), (1, "c")], 3);
    let grouped = rdd.group_by_key(2).collect();
    let map: std::collections::HashMap<i32, Vec<&str>> = grouped
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort();
            (k, vs)
        })
        .collect();
    assert_eq!(map[&1], vec!["a", "c"]);
    assert_eq!(map[&2], vec!["b"]);
}

#[test]
fn aggregate_by_key_computes_averages() {
    let sc = SparkContext::new(4);
    let pairs: Vec<(i64, f64)> = (0..1000).map(|i| (i % 10, i as f64)).collect();
    let rdd = sc.parallelize(pairs.clone(), 8);
    let avgs: std::collections::HashMap<i64, f64> = rdd
        .aggregate_by_key(
            (0.0f64, 0u64),
            |(s, c), v| (s + v, c + 1),
            |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2),
            4,
        )
        .map(|(k, (s, c))| (k, s / c as f64))
        .collect()
        .into_iter()
        .collect();
    for k in 0..10i64 {
        let vals: Vec<f64> = pairs
            .iter()
            .filter(|(kk, _)| *kk == k)
            .map(|(_, v)| *v)
            .collect();
        let want = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((avgs[&k] - want).abs() < 1e-9);
    }
}

#[test]
fn join_produces_cross_product_per_key() {
    let sc = SparkContext::new(2);
    let left = sc.parallelize(vec![(1, "l1"), (1, "l2"), (2, "l3")], 2);
    let right = sc.parallelize(vec![(1, "r1"), (3, "r2")], 2);
    let mut out = left.join(&right, 4).collect();
    out.sort();
    assert_eq!(out, vec![(1, ("l1", "r1")), (1, ("l2", "r1"))]);
}

#[test]
fn cogroup_keeps_unmatched_keys() {
    let sc = SparkContext::new(2);
    let left = sc.parallelize(vec![(1, 10), (2, 20)], 1);
    let right = sc.parallelize(vec![(2, 200), (3, 300)], 1);
    let out: std::collections::HashMap<i32, (Vec<i32>, Vec<i32>)> =
        left.cogroup(&right, 2).collect().into_iter().collect();
    assert_eq!(out[&1], (vec![10], vec![]));
    assert_eq!(out[&2], (vec![20], vec![200]));
    assert_eq!(out[&3], (vec![], vec![300]));
}

#[test]
fn sort_by_key_orders_globally() {
    let sc = SparkContext::new(4);
    let mut data: Vec<(i64, ())> = (0..5000).map(|i| ((i * 7919) % 5000, ())).collect();
    let rdd = sc.parallelize(data.clone(), 8);
    let sorted: Vec<i64> = rdd.sort_by_key(true, 4).keys().collect();
    data.sort();
    let want: Vec<i64> = data.into_iter().map(|(k, _)| k).collect();
    assert_eq!(sorted, want);
}

#[test]
fn sort_by_key_descending() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(vec![(3, ()), (1, ()), (2, ())], 2);
    let keys: Vec<i32> = rdd.sort_by_key(false, 2).keys().collect();
    assert_eq!(keys, vec![3, 2, 1]);
}

/// Rows per reduce partition of `keys` range-partitioned into `parts`
/// ranges, and the rows of each partition's most repeated key.
fn range_loads(keys: Vec<i64>, parts: usize) -> Vec<(usize, usize)> {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(keys.into_iter().map(|k| (k, ())).collect(), 4);
    let partitioned = rdd.try_range_partition(true, parts).unwrap();
    partitioned
        .run_job(|_, it| {
            let mut counts = std::collections::HashMap::new();
            for (k, _) in it {
                *counts.entry(k).or_insert(0usize) += 1;
            }
            let rows = counts.values().sum();
            (rows, counts.into_values().max().unwrap_or(0))
        })
        .unwrap()
}

#[test]
fn range_bounds_balance_uniform_and_skewed_input() {
    let n = 20_000i64;
    let uniform: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
    // Most keys crowd near zero but stay distinct.
    let skewed: Vec<i64> = (0..n).map(|i| ((i * 7919) % n).pow(4) / n.pow(3)).collect();
    let skewed: Vec<i64> = skewed
        .iter()
        .enumerate()
        .map(|(i, k)| k * n + i as i64)
        .collect();
    // 40 % of the rows share one key.
    let hot: Vec<i64> = (0..n).map(|i| if i % 5 < 2 { 42 } else { i }).collect();
    for (what, keys) in [("uniform", uniform), ("skewed", skewed), ("hot", hot)] {
        let parts = 8;
        let fair = n as usize / parts;
        let loads = range_loads(keys, parts);
        assert_eq!(loads.iter().map(|l| l.0).sum::<usize>(), n as usize);
        for (rows, repeated) in loads {
            assert!(
                rows - repeated.max(1) < 2 * fair,
                "{what}: a reducer holds {rows} rows, {repeated} of one key (fair share {fair})"
            );
        }
    }
}

#[test]
fn sort_by_key_is_a_stable_sort_of_the_input() {
    let sc = SparkContext::new(2);
    let data: Vec<(i64, usize)> = (0..3000).map(|i| (((i * 31) % 97) as i64, i)).collect();
    let rdd = sc.parallelize(data.clone(), 5);
    for ascending in [true, false] {
        // A stable sort: equal keys keep their input order.
        let mut want = data.clone();
        if ascending {
            want.sort_by_key(|row| row.0);
        } else {
            want.sort_by_key(|row| std::cmp::Reverse(row.0));
        }
        assert_eq!(rdd.sort_by_key(ascending, 4).collect(), want);
    }
}

#[test]
fn sort_by_key_samples_in_one_job() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let rdd = sc.parallelize((0..1000i64).rev().map(|k| (k, ())).collect(), 4);
    let sorted = rdd.sort_by_key(true, 4);
    // The sketch job: one stage.
    assert_eq!(Metrics::get(&sc.metrics().jobs_run), 1);
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 1);
    assert_eq!(sorted.count(), 1000);
    // Then the sort itself: its map stage and its result stage.
    assert_eq!(Metrics::get(&sc.metrics().jobs_run), 2);
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 3);
}

#[test]
fn distinct_removes_duplicates() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(vec![1, 2, 2, 3, 3, 3], 3);
    let mut out = rdd.distinct(2).collect();
    out.sort();
    assert_eq!(out, vec![1, 2, 3]);
}

#[test]
fn take_and_first_respect_partition_order() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize((0..100).collect::<Vec<i32>>(), 5);
    assert_eq!(rdd.take(3), vec![0, 1, 2]);
    assert_eq!(rdd.first(), Some(0));
    assert_eq!(rdd.take(0), Vec::<i32>::new());
}

#[test]
fn caching_avoids_recomputation() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None); // exact recomputation counts below
    let computed = Arc::new(AtomicUsize::new(0));
    let c = computed.clone();
    let rdd = sc
        .parallelize((0..100i64).collect(), 4)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x * 2
        })
        .cache();
    assert_eq!(rdd.count(), 100);
    let first_pass = computed.load(Ordering::SeqCst);
    assert_eq!(first_pass, 100);
    assert_eq!(rdd.count(), 100);
    // Served from cache: no extra upstream computation.
    assert_eq!(computed.load(Ordering::SeqCst), first_pass);
    assert!(Metrics::get(&sc.metrics().cache_hits) >= 4);
}

#[test]
fn evicted_cache_recomputes_from_lineage() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None); // exact recomputation counts below
    let computed = Arc::new(AtomicUsize::new(0));
    let c = computed.clone();
    let rdd = sc
        .parallelize((0..10i64).collect(), 2)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        })
        .cache();
    assert_eq!(rdd.count(), 10);
    sc.cache_manager().clear();
    assert_eq!(rdd.count(), 10);
    // Lineage recomputation ran the map again.
    assert_eq!(computed.load(Ordering::SeqCst), 20);
}

#[test]
fn injected_task_failures_are_retried() {
    let sc = SparkContext::new(2);
    // Fail the first attempt of every task, succeed afterwards.
    sc.set_failure_injector(Some(Arc::new(|site| site.attempt == 0)));
    let rdd = sc.parallelize((0..100i64).collect(), 4);
    assert_eq!(rdd.map(|x| x + 1).count(), 100);
    assert!(Metrics::get(&sc.metrics().task_failures) >= 4);
    sc.set_failure_injector(None);
}

#[test]
fn persistent_failures_fail_the_job() {
    let sc = SparkContext::new(2);
    sc.set_failure_injector(Some(Arc::new(|_| true)));
    let rdd = sc.parallelize(vec![1, 2, 3], 1);
    let res = rdd.try_collect();
    assert!(res.is_err());
    sc.set_failure_injector(None);
}

#[test]
fn panicking_task_is_retried_and_recovers() {
    let sc = SparkContext::new(2);
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = attempts.clone();
    let rdd = sc.parallelize(vec![1i64], 1).map(move |x| {
        if a.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure");
        }
        x
    });
    assert_eq!(rdd.collect(), vec![1]);
    // The one real panic went through the scheduler's net.
    assert_eq!(Metrics::get(&sc.metrics().task_panics), 1);
}

#[test]
fn shuffle_reuse_skips_map_stage() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None); // exact shuffle-write counts below
    let rdd = sc
        .parallelize((0..100i64).map(|i| (i % 4, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 2);
    rdd.count();
    let written_once = Metrics::get(&sc.metrics().shuffle_records_written);
    rdd.count();
    // Second job reuses the shuffle output (stage skipping).
    assert_eq!(
        Metrics::get(&sc.metrics().shuffle_records_written),
        written_once
    );
}

#[test]
fn invalidated_shuffle_is_recomputed() {
    let sc = SparkContext::new(2);
    let rdd = sc
        .parallelize((0..100i64).map(|i| (i % 4, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 2);
    let first = {
        let mut v = rdd.collect();
        v.sort();
        v
    };
    for sd in collect_shuffle_dependencies(rdd.as_inner()) {
        for map_id in 0..sd.parent().num_partitions() {
            sd.remove_output(map_id);
        }
        assert_eq!(sd.missing_maps(), vec![0, 1, 2, 3]);
    }
    let second = {
        let mut v = rdd.collect();
        v.sort();
        v
    };
    assert_eq!(first, second);
}

#[test]
fn dropping_an_rdd_frees_its_shuffle_output() {
    let sc = SparkContext::new(2);
    let sentinel = Arc::new(());
    let held = sentinel.clone();
    let rdd = sc
        .parallelize((0..100i64).collect(), 4)
        .map(move |i| (i % 4, held.clone()))
        .reduce_by_key(|a, _| a, 2);
    let out = rdd.collect();
    assert_eq!(out.len(), 4);
    // The map output holds clones until the lineage that owns it goes.
    assert!(Arc::strong_count(&sentinel) > 1 + out.len());
    drop(out);
    drop(rdd);
    assert_eq!(Arc::strong_count(&sentinel), 1);
}

#[test]
fn zip_partitions_combines_sides() {
    let sc = SparkContext::new(2);
    let a = sc.parallelize(vec![1, 2, 3, 4], 2);
    let b = sc.parallelize(vec![10, 20, 30, 40], 2);
    let out = a.zip_partitions(&b, |l, r| {
        let total: i32 = l.sum::<i32>() + r.sum::<i32>();
        Box::new(std::iter::once(total))
    });
    assert_eq!(out.collect().iter().sum::<i32>(), 110);
}

#[test]
fn sample_is_deterministic_and_roughly_proportional() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize((0..10_000i64).collect(), 4);
    let s1 = rdd.sample(0.1, 42).collect();
    let s2 = rdd.sample(0.1, 42).collect();
    assert_eq!(s1, s2);
    assert!(s1.len() > 500 && s1.len() < 1500, "got {}", s1.len());
}

#[test]
fn coalesce_reduces_partitions_without_losing_data() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize((0..100i64).collect(), 10).coalesce(3);
    assert_eq!(rdd.num_partitions(), 3);
    assert_eq!(rdd.collect(), (0..100i64).collect::<Vec<_>>());
}

#[test]
fn fold_and_reduce_agree() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize((1..=100i64).collect(), 7);
    assert_eq!(rdd.reduce(|a, b| a + b), Some(5050));
    assert_eq!(rdd.fold(0i64, |a, b| a + b, |a, b| a + b), 5050);
}

#[test]
fn count_by_key_counts() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(vec![("a", 1), ("b", 1), ("a", 1)], 2);
    let counts = rdd.count_by_key();
    assert_eq!(counts[&"a"], 2);
    assert_eq!(counts[&"b"], 1);
}

#[test]
fn empty_rdd_operations() {
    let sc = SparkContext::new(2);
    let rdd = sc.parallelize(Vec::<i64>::new(), 4);
    assert_eq!(rdd.count(), 0);
    assert_eq!(rdd.collect(), Vec::<i64>::new());
    assert_eq!(rdd.reduce(|a, b| a + b), None);
    assert_eq!(rdd.first(), None);
    let pairs = rdd.map(|x| (x, x));
    assert_eq!(pairs.reduce_by_key(|a, b| a + b, 2).count(), 0);
}
