//! Column encodings (§3.6: "columnar compression schemes such as
//! dictionary encoding and run-length encoding").

use catalyst::vectorized::StrLane;
use std::collections::HashMap;

/// Run-length encode a sequence.
pub fn rle_encode<T: PartialEq + Copy>(values: &[T]) -> Vec<(T, u32)> {
    let mut runs: Vec<(T, u32)> = Vec::new();
    for &v in values {
        match runs.last_mut() {
            Some((rv, n)) if *rv == v => *n += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

/// Decode a run-length sequence.
pub fn rle_decode<T: Copy>(runs: &[(T, u32)]) -> Vec<T> {
    let total: usize = runs.iter().map(|(_, n)| *n as usize).sum();
    let mut out = Vec::with_capacity(total);
    for &(v, n) in runs {
        out.extend(std::iter::repeat_n(v, n as usize));
    }
    out
}

/// Dictionary-encode strings: returns (dictionary, codes).
pub fn dict_encode(values: &[StrLane]) -> (Vec<StrLane>, Vec<u32>) {
    let mut dict: Vec<StrLane> = Vec::new();
    let mut index: HashMap<&[u8], u32> = HashMap::new();
    let mut codes = Vec::with_capacity(values.len());
    for v in values {
        let code = *index.entry(v.as_bytes()).or_insert_with(|| {
            dict.push(v.clone());
            (dict.len() - 1) as u32
        });
        codes.push(code);
    }
    (dict, codes)
}

/// Pack booleans into u64 words; returns (words, validity of packing).
pub fn bool_pack(values: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; values.len().div_ceil(64)];
    for (i, &b) in values.iter().enumerate() {
        if b {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// Read bit `i` of a packed boolean column.
#[inline]
pub fn bool_get(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Approximate heap bytes of a string payload.
pub fn str_bytes(s: &StrLane) -> u64 {
    16 + s.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip() {
        let data = [1i64, 1, 1, 2, 2, 3, 1, 1];
        let runs = rle_encode(&data);
        assert_eq!(runs, vec![(1, 3), (2, 2), (3, 1), (1, 2)]);
        assert_eq!(rle_decode(&runs), data);
    }

    #[test]
    fn dict_roundtrip() {
        let vals: Vec<StrLane> = ["a", "b", "a", "c", "b"].map(StrLane::new).to_vec();
        let (dict, codes) = dict_encode(&vals);
        assert_eq!(dict.len(), 3);
        let decoded: Vec<StrLane> = codes.iter().map(|&c| dict[c as usize].clone()).collect();
        assert_eq!(decoded, vals);
    }

    #[test]
    fn bool_pack_roundtrip() {
        let vals: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let words = bool_pack(&vals);
        for (i, &b) in vals.iter().enumerate() {
            assert_eq!(bool_get(&words, i), b);
        }
    }
}
