//! Central memory accounting for buffering operators, plus disk-backed
//! spill files.
//!
//! A [`MemoryPool`] holds one execution's byte budget. Operators that
//! buffer unbounded input (hash join build sides, hash aggregation
//! tables, sort buffers) register a [`MemoryReservation`] and ask it to
//! grow as their buffers fill; a denied grow is the signal to spill the
//! buffer to a [`SpillFile`] and release the reservation. The pool grants
//! requests fairly: no single consumer may hold more than
//! `budget / active_consumers` (the DataFusion "fair spill" policy), so a
//! query with several buffering operators degrades to spilling instead of
//! letting one operator starve the rest.
//!
//! Accounting is advisory — the pool tracks what consumers *report*, not
//! what the allocator hands out — but the invariant the property tests
//! lean on is hard: granted reservations never sum past the budget, so
//! `peak() <= budget()` always holds.
//!
//! [`SpillFile`]s are length-prefixed block files in the pool's spill
//! directory. They delete themselves on `Drop`, which is also the
//! task-failure cleanup path: a failing task records its error and ends
//! its stream, dropping the operator state that owns its spill files,
//! and the scheduler returns an error only after every sibling task has
//! finished, so neither errors nor injected faults (chaos task faults,
//! executor deaths) leak disk. The pool counts files created/deleted so
//! tests can assert exactly that.

use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte budget shared by every buffering operator of one execution.
pub struct MemoryPool {
    /// Budget in bytes; `u64::MAX` means unbounded (never deny).
    budget: u64,
    /// Directory spill files are created in (created lazily).
    spill_dir: PathBuf,
    state: Mutex<PoolState>,
    peak: AtomicU64,
    spill_count: AtomicU64,
    spill_bytes: AtomicU64,
    files_created: AtomicU64,
    files_deleted: AtomicU64,
    file_seq: AtomicU64,
    broadcast_bytes: AtomicU64,
}

#[derive(Default)]
struct PoolState {
    used: u64,
    consumers: u64,
}

/// Point-in-time counters of a [`MemoryPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Budget in bytes (`u64::MAX` = unbounded).
    pub budget: u64,
    /// Currently reserved bytes.
    pub used: u64,
    /// High-water mark of reserved bytes.
    pub peak: u64,
    /// Buffers spilled to disk.
    pub spill_count: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Spill files created.
    pub spill_files_created: u64,
    /// Spill files deleted (on drop; equals created when nothing leaked).
    pub spill_files_deleted: u64,
    /// Bytes of broadcast values built, which are held outside the budget.
    pub broadcast_bytes: u64,
}

impl MemoryPool {
    /// A pool enforcing `budget` bytes, spilling under `spill_dir`.
    pub fn bounded(budget: u64, spill_dir: PathBuf) -> Arc<MemoryPool> {
        Arc::new(MemoryPool {
            budget,
            spill_dir,
            state: Mutex::new(PoolState::default()),
            peak: AtomicU64::new(0),
            spill_count: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            files_created: AtomicU64::new(0),
            files_deleted: AtomicU64::new(0),
            file_seq: AtomicU64::new(0),
            broadcast_bytes: AtomicU64::new(0),
        })
    }

    /// A pool that never denies growth (the in-memory fast path).
    pub fn unbounded() -> Arc<MemoryPool> {
        MemoryPool::bounded(u64::MAX, std::env::temp_dir())
    }

    /// Does this pool enforce a finite budget?
    pub fn is_bounded(&self) -> bool {
        self.budget != u64::MAX
    }

    /// The byte budget (`u64::MAX` = unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Register a new consumer. Its reservation starts at zero bytes and
    /// frees itself (and deregisters) on drop.
    pub fn register(self: &Arc<MemoryPool>) -> MemoryReservation {
        self.state.lock().consumers += 1;
        MemoryReservation {
            pool: self.clone(),
            size: 0,
        }
    }

    /// Grant `delta` more bytes to a consumer currently holding
    /// `current`, or deny. Denial means: spill.
    fn try_grow_inner(&self, current: u64, delta: u64) -> bool {
        if !self.is_bounded() {
            return true;
        }
        let mut st = self.state.lock();
        let share = self.budget / st.consumers.max(1);
        if st.used.saturating_add(delta) > self.budget || current.saturating_add(delta) > share {
            return false;
        }
        st.used += delta;
        self.peak.fetch_max(st.used, Ordering::Relaxed);
        true
    }

    fn shrink_inner(&self, delta: u64) {
        if !self.is_bounded() {
            return;
        }
        let mut st = self.state.lock();
        st.used = st.used.saturating_sub(delta);
    }

    fn deregister(&self, size: u64) {
        if self.is_bounded() {
            let mut st = self.state.lock();
            st.used = st.used.saturating_sub(size);
            st.consumers = st.consumers.saturating_sub(1);
        } else {
            self.state.lock().consumers -= 1;
        }
    }

    /// Record one buffer spilled as `bytes` on disk.
    pub fn record_spill(&self, bytes: u64) {
        self.spill_count.fetch_add(1, Ordering::Relaxed);
        self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a broadcast value of `bytes`: it is shared by every task and
    /// held outside the budget, so it is counted, never reserved.
    pub fn note_broadcast(&self, bytes: u64) {
        self.broadcast_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Create an empty spill file in the pool's spill directory. The file
    /// removes itself from disk when dropped.
    pub fn spill_file(self: &Arc<MemoryPool>) -> std::io::Result<SpillFile> {
        std::fs::create_dir_all(&self.spill_dir)?;
        let seq = self.file_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.spill_dir.join(format!(
            "spill-{}-{:p}-{}.bin",
            std::process::id(),
            self as &MemoryPool as *const MemoryPool,
            seq
        ));
        let file = File::create(&path)?;
        self.files_created.fetch_add(1, Ordering::Relaxed);
        Ok(SpillFile {
            path,
            file: Some(file),
            bytes: 0,
            pool: self.clone(),
        })
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> MemoryStats {
        let st = self.state.lock();
        MemoryStats {
            budget: self.budget,
            used: st.used,
            peak: self.peak.load(Ordering::Relaxed),
            spill_count: self.spill_count.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            spill_files_created: self.files_created.load(Ordering::Relaxed),
            spill_files_deleted: self.files_deleted.load(Ordering::Relaxed),
            broadcast_bytes: self.broadcast_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One consumer's slice of a [`MemoryPool`]. Frees itself on drop.
pub struct MemoryReservation {
    pool: Arc<MemoryPool>,
    size: u64,
}

impl MemoryReservation {
    /// Ask for `delta` more bytes. `false` means the pool is full (or
    /// this consumer is past its fair share) — time to spill.
    pub fn try_grow(&mut self, delta: u64) -> bool {
        if self.pool.try_grow_inner(self.size, delta) {
            self.size += delta;
            true
        } else {
            false
        }
    }

    /// Return `delta` bytes to the pool (saturating at zero).
    pub fn shrink(&mut self, delta: u64) {
        let delta = delta.min(self.size);
        self.size -= delta;
        self.pool.shrink_inner(delta);
    }

    /// Return everything to the pool.
    pub fn free(&mut self) {
        let size = self.size;
        self.shrink(size);
    }

    /// Bytes currently held.
    pub fn size(&self) -> u64 {
        self.size
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.pool.deregister(self.size);
        self.size = 0;
    }
}

/// A disk file of length-prefixed blocks, deleted on drop.
///
/// Writers call [`SpillFile::append`] with encoded blocks; readers get
/// them back in order via [`SpillFile::blocks`]. Block encoding is the
/// caller's business (the SQL layer uses the colfile column codec).
pub struct SpillFile {
    path: PathBuf,
    /// Write handle; dropped on the first read.
    file: Option<File>,
    bytes: u64,
    pool: Arc<MemoryPool>,
}

impl SpillFile {
    /// Append one block.
    pub fn append(&mut self, block: &[u8]) -> std::io::Result<()> {
        let f = self
            .file
            .as_mut()
            .ok_or_else(|| std::io::Error::other("spill file already sealed for reading"))?;
        f.write_all(&(block.len() as u64).to_le_bytes())?;
        f.write_all(block)?;
        self.bytes += 8 + block.len() as u64;
        Ok(())
    }

    /// Total bytes written (including block length prefixes).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Seal the file and iterate its blocks in write order. The write
    /// handle is an unbuffered `File`, so dropping it loses nothing, and a
    /// spill outlives no process: it is not synced to disk.
    pub fn blocks(&mut self) -> std::io::Result<SpillBlockIter> {
        drop(self.file.take());
        let file = File::open(&self.path)?;
        Ok(SpillBlockIter {
            remaining: file.metadata()?.len(),
            reader: BufReader::new(file),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.file.take();
        if std::fs::remove_file(&self.path).is_ok() {
            self.pool.files_deleted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Streaming reader over a [`SpillFile`]'s blocks.
pub struct SpillBlockIter {
    reader: BufReader<File>,
    /// Bytes of the file not yet read: a block length beyond them is
    /// corrupt, and is an error rather than an allocation of that size.
    remaining: u64,
}

impl Iterator for SpillBlockIter {
    type Item = std::io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut len = [0u8; 8];
        match self.reader.read_exact(&mut len) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return None,
            Err(e) => return Some(Err(e)),
            Ok(()) => {}
        }
        let len = u64::from_le_bytes(len);
        self.remaining = self.remaining.saturating_sub(8);
        if len > self.remaining {
            let msg = format!("spill block of {len} bytes overruns the file");
            return Some(Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                msg,
            )));
        }
        self.remaining -= len;
        let mut block = vec![0u8; len as usize];
        match self.reader.read_exact(&mut block) {
            Err(e) => Some(Err(e)),
            Ok(()) => Some(Ok(block)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_pool_always_grants() {
        let pool = MemoryPool::unbounded();
        let mut r = pool.register();
        assert!(r.try_grow(u64::MAX / 2));
        assert!(!pool.is_bounded());
        drop(r);
    }

    #[test]
    fn bounded_pool_enforces_budget_and_fair_share() {
        let pool = MemoryPool::bounded(1000, std::env::temp_dir());
        let mut a = pool.register();
        assert!(a.try_grow(900));
        assert!(!a.try_grow(200), "over budget");
        // A second consumer halves the fair share; `a` is already past it.
        let mut b = pool.register();
        assert!(!a.try_grow(1));
        assert!(!b.try_grow(200), "pool has only 100 left");
        assert!(b.try_grow(100));
        assert_eq!(pool.stats().used, 1000);
        assert_eq!(pool.stats().peak, 1000);
        a.shrink(500);
        assert_eq!(pool.stats().used, 500);
        // Fair share (500 each) still caps `a` at its current 400 + 100.
        assert!(a.try_grow(100));
        assert!(!a.try_grow(1));
        drop(a);
        drop(b);
        assert_eq!(pool.stats().used, 0);
        assert_eq!(pool.stats().peak, 1000);
    }

    #[test]
    fn reservation_drop_frees_and_deregisters() {
        let pool = MemoryPool::bounded(100, std::env::temp_dir());
        {
            let mut a = pool.register();
            assert!(a.try_grow(60));
            // Registered second consumer shrinks a's share but not its holdings.
            let b = pool.register();
            drop(b);
        }
        assert_eq!(pool.stats().used, 0);
        let mut c = pool.register();
        assert!(c.try_grow(100), "full budget available again");
    }

    #[test]
    fn spill_file_roundtrip_and_self_delete() {
        let dir = std::env::temp_dir().join(format!("engine-mem-{}", std::process::id()));
        let pool = MemoryPool::bounded(10, dir.clone());
        let path;
        {
            let mut f = pool.spill_file().unwrap();
            f.append(b"hello").unwrap();
            f.append(b"").unwrap();
            f.append(b"world!").unwrap();
            pool.record_spill(f.bytes_written());
            let blocks: Vec<Vec<u8>> = f.blocks().unwrap().map(|b| b.unwrap()).collect();
            assert_eq!(blocks, vec![b"hello".to_vec(), vec![], b"world!".to_vec()]);
            path = dir.clone();
            assert_eq!(pool.stats().spill_files_created, 1);
            assert_eq!(pool.stats().spill_files_deleted, 0);
            assert_eq!(pool.stats().spill_count, 1);
            assert!(pool.stats().spill_bytes > 0);
        }
        let s = pool.stats();
        assert_eq!(s.spill_files_created, s.spill_files_deleted);
        std::fs::remove_dir_all(path).ok();
    }

    #[test]
    fn a_block_length_past_the_end_of_its_file_is_an_error() {
        use std::io::{Seek, SeekFrom};
        let dir = std::env::temp_dir().join(format!("engine-mem-len-{}", std::process::id()));
        let pool = MemoryPool::bounded(10, dir.clone());
        let mut f = pool.spill_file().unwrap();
        f.append(b"block").unwrap();
        let mut raw = std::fs::OpenOptions::new()
            .write(true)
            .open(&f.path)
            .unwrap();
        raw.seek(SeekFrom::Start(0)).unwrap();
        raw.write_all(&(1u64 << 40).to_le_bytes()).unwrap();
        let read: Vec<_> = f.blocks().unwrap().collect();
        assert_eq!(read.len(), 1);
        assert!(read[0].is_err());
        drop(f);
        std::fs::remove_dir_all(dir).ok();
    }
}
