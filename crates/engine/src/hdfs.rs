//! Simulated distributed file store ("HDFS").
//!
//! A directory of part files with byte-metered reads and writes,
//! reproducing the two dominant costs of a real HDFS round trip that the
//! Figure 10 experiment depends on:
//!
//! * **replication** — HDFS writes every block `dfs.replication` (default
//!   3) times; we write each part file that many times;
//! * **checksumming** — HDFS computes CRCs on write and verifies them on
//!   read; we store a checksum sidecar per part and verify on read.
//!
//! The Figure 10 experiment uses this to model the cost a pipeline pays
//! when a SQL job materializes its result to a file before a separate
//! procedural job reads it back — the overhead the integrated DataFrame
//! pipeline avoids.

use crate::context::SparkContext;
use crate::error::{EngineError, Result};
use crate::metrics::Metrics;
use crate::rdd::RddRef;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Handle to a directory acting as the cluster file system.
pub struct FileStore {
    root: PathBuf,
    replication: usize,
    checksums: bool,
}

/// CRC-32 (IEEE) over a byte slice — what HDFS computes per 512-byte
/// chunk; we apply it per line batch.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl FileStore {
    /// Use (and create) `root` as the store directory, with HDFS-like
    /// defaults (replication 3, checksums on).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileStore {
            root,
            replication: 3,
            checksums: true,
        })
    }

    /// Create a store under the OS temp directory with a unique suffix.
    pub fn temp(tag: &str) -> Result<Self> {
        let pid = std::process::id();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let root = std::env::temp_dir().join(format!("engine-fs-{tag}-{pid}-{nanos}"));
        FileStore::new(root)
    }

    /// Override the replication factor (1 disables the extra copies).
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// Enable/disable checksum sidecars.
    pub fn with_checksums(mut self, checksums: bool) -> Self {
        self.checksums = checksums;
        self
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dataset_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Write an RDD of lines as `part-NNNNN` files under `name`,
    /// materializing every partition with replication and checksums.
    pub fn save_text(&self, sc: &SparkContext, rdd: &RddRef<String>, name: &str) -> Result<()> {
        let dir = self.dataset_dir(name);
        fs::create_dir_all(&dir)?;
        let dir2 = dir.clone();
        let sc2 = sc.clone();
        let replication = self.replication;
        let checksums = self.checksums;
        rdd.run_job(move |partition, it| -> std::io::Result<()> {
            // Buffer the partition once; each replica is a full write, as
            // in the HDFS write pipeline.
            let mut content = String::new();
            for line in it {
                content.push_str(&line);
                content.push('\n');
            }
            let bytes = content.as_bytes();
            for r in 0..replication {
                let path = dir2.join(format!("part-{partition:05}.r{r}"));
                let mut file = std::io::BufWriter::new(fs::File::create(&path)?);
                file.write_all(bytes)?;
                file.flush()?;
                Metrics::add(&sc2.metrics().fs_bytes_written, bytes.len() as u64);
            }
            if checksums {
                let crc = crc32(bytes);
                let path = dir2.join(format!("part-{partition:05}.crc"));
                fs::write(path, crc.to_le_bytes())?;
            }
            Ok(())
        })?
        .into_iter()
        .collect::<std::io::Result<()>>()?;
        Ok(())
    }

    /// Read a dataset written by [`FileStore::save_text`] back as an RDD
    /// with one partition per part file (reads replica 0, verifying the
    /// checksum like an HDFS client).
    pub fn read_text(&self, sc: &SparkContext, name: &str) -> Result<RddRef<String>> {
        let dir = self.dataset_dir(name);
        let mut parts: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "r0"))
            .collect();
        parts.sort();
        if parts.is_empty() {
            return Err(EngineError::Io(format!(
                "no part files under {}",
                dir.display()
            )));
        }
        let sc2 = sc.clone();
        let checksums = self.checksums;
        Ok(sc.generate(parts.len(), move |p| {
            let mut content = String::new();
            let read = fs::File::open(&parts[p]).and_then(|mut f| f.read_to_string(&mut content));
            if crate::task::ok(read).is_none() {
                return Box::new(std::iter::empty());
            }
            Metrics::add(&sc2.metrics().fs_bytes_read, content.len() as u64);
            if checksums {
                let crc_path = parts[p].with_extension("crc");
                if let Ok(stored) = fs::read(crc_path) {
                    let stored = u32::from_le_bytes(stored.try_into().unwrap_or_default());
                    if stored != crc32(content.as_bytes()) {
                        let part = parts[p].display();
                        crate::task::fail(EngineError::Io(format!(
                            "checksum mismatch reading {part}"
                        )));
                        return Box::new(std::iter::empty());
                    }
                }
            }
            let lines: Vec<String> = content.lines().map(|s| s.to_string()).collect();
            Box::new(lines.into_iter())
        }))
    }

    /// Delete a dataset directory if present.
    pub fn delete(&self, name: &str) -> Result<()> {
        let dir = self.dataset_dir(name);
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort cleanup of temp stores.
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparkContext;

    #[test]
    fn text_roundtrip_preserves_lines() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None); // exact fs byte counts below
        let fs = FileStore::temp("roundtrip").unwrap();
        let lines: Vec<String> = (0..50).map(|i| format!("line-{i}")).collect();
        let rdd = sc.parallelize(lines.clone(), 4);
        fs.save_text(&sc, &rdd, "data").unwrap();
        let back = fs.read_text(&sc, "data").unwrap();
        let mut got = back.collect();
        got.sort();
        let mut want = lines;
        want.sort();
        assert_eq!(got, want);
        // Replication 3: writes are 3x reads.
        let m = sc.metrics().snapshot();
        assert_eq!(m.fs_bytes_written, 3 * m.fs_bytes_read);
    }

    #[test]
    fn replication_one_writes_once() {
        let sc = SparkContext::new(1);
        sc.set_chaos(None); // exact fs byte counts below
        let fs = FileStore::temp("r1").unwrap().with_replication(1);
        let rdd = sc.parallelize(vec!["abc".to_string()], 1);
        fs.save_text(&sc, &rdd, "d").unwrap();
        let m = sc.metrics().snapshot();
        assert_eq!(m.fs_bytes_written, 4); // "abc\n"
    }

    #[test]
    fn delete_removes_dataset() {
        let sc = SparkContext::new(1);
        let fs = FileStore::temp("delete").unwrap();
        let rdd = sc.parallelize(vec!["a".to_string()], 1);
        fs.save_text(&sc, &rdd, "d").unwrap();
        fs.delete("d").unwrap();
        assert!(fs.read_text(&sc, "d").is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }
}
