//! Key partitioners used on the map side of a shuffle.

use crate::ops::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Decides which reduce partition a key belongs to.
pub trait Partitioner<K>: Send + Sync {
    /// Number of reduce partitions.
    fn num_partitions(&self) -> usize;
    /// Partition for `key`; must be `< num_partitions()`.
    fn partition(&self, key: &K) -> usize;
}

/// Hash-based partitioner (the default, like Spark's `HashPartitioner`).
pub struct HashPartitioner<K> {
    partitions: usize,
    _k: PhantomData<fn(&K)>,
}

impl<K> HashPartitioner<K> {
    /// Create a hash partitioner with `partitions` buckets (at least 1).
    pub fn new(partitions: usize) -> Self {
        HashPartitioner {
            partitions: partitions.max(1),
            _k: PhantomData,
        }
    }
}

impl<K: Hash + Send + Sync> Partitioner<K> for HashPartitioner<K> {
    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn partition(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.partitions as u64) as usize
    }
}

/// Range partitioner for global sorts: keys `< bounds[0]` go to partition
/// 0, keys in `[bounds[i-1], bounds[i])` to partition `i`, the rest to the
/// last partition. Bounds come from one sketch job over the input (see
/// `SortedPairRdd::try_range_partition`).
pub struct RangePartitioner<K: Ord> {
    bounds: Vec<K>,
    ascending: bool,
}

impl<K: Ord + Clone + Send + Sync> RangePartitioner<K> {
    /// Build from pre-computed, sorted upper bounds.
    pub fn new(bounds: Vec<K>, ascending: bool) -> Self {
        RangePartitioner { bounds, ascending }
    }

    /// Sample size per input partition for `partitions` ranges over
    /// `inputs` input partitions: about 20 keys per range in all, drawn
    /// three times over so a partition holding more than its share of
    /// the input is still represented (Spark's `RangePartitioner`).
    pub fn sample_size(partitions: usize, inputs: usize) -> usize {
        let total = (20 * partitions).clamp(20, 1_000_000);
        (3 * total).div_ceil(inputs.max(1))
    }

    /// Compute up to `partitions - 1` boundary keys from a weighted
    /// sample: each key stands for `weight` input keys (see
    /// [`Reservoir::weighted`]). A key becomes a bound once the keys
    /// before it weigh a range's share, so range `i` holds about
    /// `1 / partitions` of the input; a key weighing several shares
    /// gets a range of its own.
    pub fn bounds_from_weighted_sample(mut sample: Vec<(K, f64)>, partitions: usize) -> Vec<K> {
        if partitions <= 1 || sample.is_empty() {
            return vec![];
        }
        sample.sort_by(|a, b| a.0.cmp(&b.0));
        let step = sample.iter().map(|(_, w)| w).sum::<f64>() / partitions as f64;
        let mut bounds: Vec<K> = Vec::with_capacity(partitions - 1);
        let (mut before, mut target) = (0.0, step);
        for (key, weight) in sample {
            if bounds.len() == partitions - 1 {
                break;
            }
            if before >= target && bounds.last().is_none_or(|b| *b < key) {
                bounds.push(key);
                target += step;
            }
            before += weight;
        }
        bounds
    }
}

/// A uniform sample of at most `size` items of a stream, and the
/// stream's length: one input partition's sketch for range bounds. An
/// item is built only when it is kept, so sampling a partition builds
/// about `size · ln(len / size)` items, not `len`.
pub struct Reservoir<K> {
    size: usize,
    seen: u64,
    items: Vec<K>,
    rng: SplitMix64,
}

impl<K> Reservoir<K> {
    /// An empty reservoir keeping up to `size` items, its choices
    /// drawn from `seed`.
    pub fn new(size: usize, seed: u64) -> Self {
        Reservoir {
            size: size.max(1),
            seen: 0,
            items: Vec::new(),
            rng: SplitMix64(seed),
        }
    }

    /// Offer the stream's next item, built by `item` if it is kept.
    pub fn offer(&mut self, item: impl FnOnce() -> K) {
        self.seen += 1;
        if self.items.len() < self.size {
            self.items.push(item());
            return;
        }
        let slot = (self.rng.next_u64() % self.seen) as usize;
        if slot < self.size {
            self.items[slot] = item();
        }
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept items, each weighted by how many offered items it
    /// stands for.
    pub fn weighted(self) -> Vec<(K, f64)> {
        let weight = self.seen as f64 / self.items.len().max(1) as f64;
        self.items.into_iter().map(|k| (k, weight)).collect()
    }
}

impl<K: Ord + Clone + Send + Sync> Partitioner<K> for RangePartitioner<K> {
    fn num_partitions(&self) -> usize {
        self.bounds.len() + 1
    }

    fn partition(&self, key: &K) -> usize {
        // partition_point returns the count of bounds <= key, i.e. the
        // index of the first range whose upper bound exceeds the key.
        let p = self.bounds.partition_point(|b| b <= key);
        if self.ascending {
            p
        } else {
            self.bounds.len() - p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner::<i64>::new(7);
        for k in 0..1000i64 {
            let a = p.partition(&k);
            let b = p.partition(&k);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_clamps_zero() {
        let p = HashPartitioner::<i64>::new(0);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partition(&42), 0);
    }

    #[test]
    fn range_partitioner_orders_keys() {
        let p = RangePartitioner::new(vec![10, 20], true);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.partition(&5), 0);
        assert_eq!(p.partition(&10), 1);
        assert_eq!(p.partition(&15), 1);
        assert_eq!(p.partition(&20), 2);
        assert_eq!(p.partition(&99), 2);
    }

    #[test]
    fn range_partitioner_descending_reverses() {
        let p = RangePartitioner::new(vec![10, 20], false);
        assert_eq!(p.partition(&5), 2);
        assert_eq!(p.partition(&99), 0);
    }

    fn weighted(keys: impl IntoIterator<Item = i64>, weight: f64) -> Vec<(i64, f64)> {
        keys.into_iter().map(|k| (k, weight)).collect()
    }

    #[test]
    fn weighted_bounds_split_evenly() {
        let bounds = RangePartitioner::bounds_from_weighted_sample(weighted(0..100, 1.0), 4);
        assert_eq!(bounds, vec![25, 50, 75]);
    }

    #[test]
    fn weighted_bounds_follow_the_weights() {
        // Keys 0..10 stand for 9 input keys each, keys 10..100 for one:
        // half the input sits below 10.
        let mut sample = weighted(0..10, 9.0);
        sample.extend(weighted(10..100, 1.0));
        let bounds = RangePartitioner::bounds_from_weighted_sample(sample, 2);
        assert_eq!(bounds, vec![10]);
    }

    #[test]
    fn weighted_bounds_skip_repeated_keys() {
        let bounds = RangePartitioner::bounds_from_weighted_sample(weighted([7; 50], 1.0), 4);
        assert!(bounds.len() <= 1, "{bounds:?}");
        assert!(RangePartitioner::<i64>::bounds_from_weighted_sample(vec![], 4).is_empty());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(100, 7);
        let mut built = 0;
        for k in 0..10_000i64 {
            r.offer(|| {
                built += 1;
                k
            });
        }
        assert_eq!(r.seen(), 10_000);
        assert!(built < 1_000, "built {built} items for a 100-item sample");
        let sample = r.weighted();
        assert_eq!(sample.len(), 100);
        assert!(sample.iter().all(|&(_, w)| w == 100.0));
        let low = sample.iter().filter(|&&(k, _)| k < 5_000).count();
        assert!(
            (30..=70).contains(&low),
            "{low} of 100 kept keys in the lower half"
        );
    }
}
