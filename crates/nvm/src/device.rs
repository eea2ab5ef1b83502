//! The simulated NVM device.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{LatencyModel, NvmStats, CACHE_LINE};

/// Errors produced by device construction and image I/O.
#[derive(Debug)]
pub enum NvmError {
    /// The requested device size was zero or not a multiple of the line size.
    BadSize(usize),
    /// An image file could not be read or written.
    Io(std::io::Error),
    /// An image file did not match the device size.
    ImageSizeMismatch {
        /// Size of the device in bytes.
        device: usize,
        /// Size of the on-disk image in bytes.
        image: usize,
    },
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::BadSize(n) => write!(
                f,
                "device size {n} is not a positive multiple of {CACHE_LINE}"
            ),
            NvmError::Io(e) => write!(f, "image i/o failed: {e}"),
            NvmError::ImageSizeMismatch { device, image } => {
                write!(f, "image size {image} does not match device size {device}")
            }
        }
    }
}

impl std::error::Error for NvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NvmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NvmError {
    fn from(e: std::io::Error) -> Self {
        NvmError::Io(e)
    }
}

/// Construction parameters for an [`NvmDevice`].
#[derive(Debug, Clone)]
pub struct NvmConfig {
    /// Device capacity in bytes. Rounded up to a multiple of [`CACHE_LINE`].
    pub size: usize,
    /// Latency model used for simulated-time accounting.
    pub latency: LatencyModel,
}

impl NvmConfig {
    /// Config of the given size with the zero-cost latency model.
    pub fn with_size(size: usize) -> Self {
        NvmConfig {
            size,
            latency: LatencyModel::zero(),
        }
    }
}

/// What [`NvmDevice::sync_image`] wrote to the image file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageSyncReport {
    /// Cache lines written to the file.
    pub lines_synced: usize,
    /// Bytes written to the file.
    pub bytes_written: usize,
    /// The whole image was rewritten (missing or mismatched file).
    pub full_rewrite: bool,
}

/// A scheduled power failure, expressed in remaining successful line flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// How many further line flushes will succeed before power is lost.
    pub flushes_remaining: u64,
}

/// A consistent image delta captured by [`NvmDevice::snapshot_sync`].
///
/// The snapshot step runs under the device lock and copies the persisted
/// bytes of every line not yet in the image file; the [`apply`](Self::apply)
/// step writes those copies to the file with **no** device lock held, so
/// mutations (even re-persists of the same lines) proceed while the sync is
/// in flight — the copies pin the commit point's contents.
///
/// If an apply fails or is abandoned, hand the snapshot back to
/// [`NvmDevice::restore_unsynced`] so the next snapshot re-captures its
/// lines; otherwise they would silently never reach the image.
#[derive(Debug)]
pub struct SyncSnapshot {
    device_size: usize,
    /// The whole image must be rewritten (missing or mismatched file);
    /// `runs` then holds one run covering the full persisted image.
    full: bool,
    lines: usize,
    /// `(byte offset, persisted bytes)` runs, coalesced and ascending.
    runs: Vec<(usize, Vec<u8>)>,
}

impl SyncSnapshot {
    /// Cache lines captured.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Bytes the apply will write.
    pub fn bytes(&self) -> usize {
        self.runs.iter().map(|(_, b)| b.len()).sum()
    }

    /// Whether the apply will rewrite the whole image file.
    pub fn is_full_rewrite(&self) -> bool {
        self.full
    }

    /// Whether there is nothing to write.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Writes the captured runs to the image file. Takes no device lock —
    /// this is the half of a sync that can run on a background thread.
    ///
    /// # Errors
    ///
    /// [`NvmError::Io`] on filesystem failure, and
    /// [`NvmError::ImageSizeMismatch`] when a partial snapshot finds the
    /// file missing or resized (something replaced it since the snapshot);
    /// the caller should restore the snapshot's lines and retry with a
    /// fresh snapshot.
    pub fn apply(&self, path: &Path) -> crate::Result<ImageSyncReport> {
        use std::io::{Seek, SeekFrom, Write};
        if self.full {
            std::fs::write(path, &self.runs[0].1)?;
            return Ok(ImageSyncReport {
                lines_synced: self.lines,
                bytes_written: self.device_size,
                full_rewrite: true,
            });
        }
        if self.runs.is_empty() {
            return Ok(ImageSyncReport::default());
        }
        let image = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as usize;
        if image != self.device_size {
            return Err(NvmError::ImageSizeMismatch {
                device: self.device_size,
                image,
            });
        }
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        let mut bytes_written = 0;
        for (off, bytes) in &self.runs {
            file.seek(SeekFrom::Start(*off as u64))?;
            file.write_all(bytes)?;
            bytes_written += bytes.len();
        }
        file.flush()?;
        Ok(ImageSyncReport {
            lines_synced: self.lines,
            bytes_written,
            full_rewrite: false,
        })
    }
}

struct Inner {
    volatile: Vec<u8>,
    persisted: Vec<u8>,
    /// One bit per cache line: line differs from the persisted image.
    dirty: Vec<u64>,
    /// One bit per cache line: persisted line differs from the last image
    /// written by [`NvmDevice::save_image`] / [`NvmDevice::sync_image`].
    unsynced: Vec<u64>,
    stats: NvmStats,
    latency: LatencyModel,
    sim_ns: f64,
    crashed: bool,
    plan: Option<CrashPlan>,
}

impl Inner {
    fn mark_dirty(&mut self, line: usize) {
        self.dirty[line / 64] |= 1 << (line % 64);
    }

    fn is_dirty(&self, line: usize) -> bool {
        self.dirty[line / 64] & (1 << (line % 64)) != 0
    }

    fn clear_dirty(&mut self, line: usize) {
        self.dirty[line / 64] &= !(1 << (line % 64));
    }

    fn charge(&mut self, ns: f64) {
        self.sim_ns += ns;
        self.stats.simulated_ns = self.sim_ns as u64;
    }

    fn check_range(&self, addr: usize, len: usize) {
        assert!(
            addr.checked_add(len)
                .is_some_and(|end| end <= self.volatile.len()),
            "nvm access out of range: addr={addr} len={len} size={}",
            self.volatile.len()
        );
    }

    fn write_bytes(&mut self, addr: usize, data: &[u8]) {
        self.check_range(addr, data.len());
        self.volatile[addr..addr + data.len()].copy_from_slice(data);
        let first = addr / CACHE_LINE;
        let last = (addr + data.len().max(1) - 1) / CACHE_LINE;
        for line in first..=last {
            self.mark_dirty(line);
        }
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        let lines = (last - first + 1) as f64;
        let ns = self.latency.write_line_ns * lines;
        self.charge(ns);
    }

    fn flush_range(&mut self, addr: usize, len: usize) {
        self.check_range(addr, len);
        if len == 0 {
            return;
        }
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        for line in first..=last {
            if !self.is_dirty(line) {
                continue;
            }
            // A flush is issued (and costed / counted) even when power has
            // already failed; it just has no durable effect.
            self.stats.line_flushes += 1;
            let ns = self.latency.flush_line_ns;
            self.charge(ns);
            if let Some(plan) = &mut self.plan {
                if plan.flushes_remaining == 0 {
                    self.crashed = true;
                } else {
                    plan.flushes_remaining -= 1;
                }
            }
            if !self.crashed {
                let lo = line * CACHE_LINE;
                let hi = lo + CACHE_LINE;
                self.persisted[lo..hi].copy_from_slice(&self.volatile[lo..hi]);
                self.clear_dirty(line);
                self.unsynced[line / 64] |= 1 << (line % 64);
            }
        }
    }
}

/// A simulated NVDIMM: a flat byte array with an explicit persistence domain.
///
/// Cloning the handle is cheap; all clones refer to the same device.
///
/// Writes go to a volatile cache-line buffer. [`flush`](Self::flush) moves
/// dirty lines into the durable image; [`fence`](Self::fence) orders them
/// (the model is strict, so fences only cost time and count events).
/// [`crash`](Self::crash) discards everything not yet flushed.
///
/// # Example
///
/// ```
/// use espresso_nvm::{NvmDevice, NvmConfig};
/// let dev = NvmDevice::new(NvmConfig::with_size(1024));
/// dev.write_u64(64, 7);
/// dev.persist(64, 8);
/// assert_eq!(dev.read_u64(64), 7);
/// ```
#[derive(Clone)]
pub struct NvmDevice {
    inner: Arc<Mutex<Inner>>,
    size: usize,
}

impl fmt::Debug for NvmDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvmDevice")
            .field("size", &self.size)
            .finish()
    }
}

impl NvmDevice {
    /// Creates a zero-filled device.
    ///
    /// The size is rounded up to a multiple of [`CACHE_LINE`]; a zero size
    /// is promoted to one line.
    pub fn new(config: NvmConfig) -> Self {
        let size = config.size.max(1).div_ceil(CACHE_LINE) * CACHE_LINE;
        let lines = size / CACHE_LINE;
        NvmDevice {
            inner: Arc::new(Mutex::new(Inner {
                volatile: vec![0; size],
                persisted: vec![0; size],
                dirty: vec![0; lines.div_ceil(64)],
                // A fresh device has never been written to an image, so
                // every line counts as unsynced until the first full save.
                unsynced: vec![u64::MAX; lines.div_ceil(64)],
                stats: NvmStats::default(),
                latency: config.latency,
                sim_ns: 0.0,
                crashed: false,
                plan: None,
            })),
            size,
        }
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the device size.
    pub fn read_u64(&self, addr: usize) -> u64 {
        let mut inner = self.inner.lock();
        inner.check_range(addr, 8);
        inner.stats.reads += 1;
        let ns = inner.latency.read_line_ns;
        inner.charge(ns);
        u64::from_le_bytes(inner.volatile[addr..addr + 8].try_into().unwrap())
    }

    /// Writes a little-endian `u64` at `addr` (volatile until flushed).
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the device size.
    pub fn write_u64(&self, addr: usize, value: u64) {
        self.inner.lock().write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device size.
    pub fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        let mut inner = self.inner.lock();
        inner.check_range(addr, buf.len());
        inner.stats.reads += 1;
        let lines = buf.len().div_ceil(CACHE_LINE).max(1) as f64;
        let ns = inner.latency.read_line_ns * lines;
        inner.charge(ns);
        buf.copy_from_slice(&inner.volatile[addr..addr + buf.len()]);
    }

    /// Writes `data` starting at `addr` (volatile until flushed).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device size.
    pub fn write_bytes(&self, addr: usize, data: &[u8]) {
        self.inner.lock().write_bytes(addr, data);
    }

    /// Fills `[addr, addr + len)` with `byte` (volatile until flushed).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device size.
    pub fn fill(&self, addr: usize, len: usize, byte: u8) {
        if len == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.check_range(addr, len);
        inner.volatile[addr..addr + len]
            .iter_mut()
            .for_each(|b| *b = byte);
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        for line in first..=last {
            inner.mark_dirty(line);
        }
        inner.stats.writes += 1;
        inner.stats.bytes_written += len as u64;
        let ns = inner.latency.write_line_ns * (last - first + 1) as f64;
        inner.charge(ns);
    }

    /// Flushes every dirty cache line overlapping `[addr, addr + len)` into
    /// the persistence domain (the `clflush` loop of §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device size.
    pub fn flush(&self, addr: usize, len: usize) {
        self.inner.lock().flush_range(addr, len);
    }

    /// Issues a store fence (`sfence`). In this strict model a fence only
    /// accounts time and increments the counter.
    pub fn fence(&self) {
        let mut inner = self.inner.lock();
        inner.stats.fences += 1;
        let ns = inner.latency.fence_ns;
        inner.charge(ns);
    }

    /// Convenience for `flush(addr, len)` followed by `fence()`.
    pub fn persist(&self, addr: usize, len: usize) {
        self.flush(addr, len);
        self.fence();
    }

    /// Simulates an immediate power failure: the volatile buffer reverts to
    /// the persisted image and any scheduled crash plan is cleared.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        let persisted = inner.persisted.clone();
        inner.volatile = persisted;
        inner.dirty.iter_mut().for_each(|w| *w = 0);
        inner.crashed = false;
        inner.plan = None;
    }

    /// Schedules a power failure: the next `n` line flushes succeed, every
    /// later flush is silently dropped. Combine with [`crash`](Self::crash)
    /// (or [`recover`](Self::recover)) to observe the post-failure image.
    pub fn schedule_crash_after_line_flushes(&self, n: u64) {
        let mut inner = self.inner.lock();
        inner.plan = Some(CrashPlan {
            flushes_remaining: n,
        });
        inner.crashed = false;
    }

    /// Whether a scheduled crash has triggered (power is "off": flushes are
    /// being dropped).
    pub fn has_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Reverts the volatile buffer to the persisted image and restores
    /// power. Equivalent to [`crash`](Self::crash); named for readability at
    /// recovery sites.
    pub fn recover(&self) {
        self.crash();
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> NvmStats {
        self.inner.lock().stats
    }

    /// Resets all counters to zero.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.stats = NvmStats::default();
        inner.sim_ns = 0.0;
    }

    /// Replaces the latency model (counters are kept).
    pub fn set_latency(&self, latency: LatencyModel) {
        self.inner.lock().latency = latency;
    }

    /// Copy of the durable image (what a crash right now would preserve).
    pub fn snapshot_persisted(&self) -> Vec<u8> {
        self.inner.lock().persisted.clone()
    }

    /// Writes the durable image to `path` in full and marks every line as
    /// synced (subsequent [`sync_image`](Self::sync_image) calls write only
    /// what was persisted after this point).
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Io`] on filesystem failure.
    pub fn save_image(&self, path: &Path) -> crate::Result<()> {
        let mut inner = self.inner.lock();
        std::fs::write(path, &inner.persisted)?;
        inner.unsynced.iter_mut().for_each(|w| *w = 0);
        Ok(())
    }

    /// Incrementally syncs the durable image at `path`: only cache lines
    /// persisted since the last [`save_image`](Self::save_image) /
    /// `sync_image` are written (contiguous runs are coalesced into single
    /// `write` calls). Falls back to a full rewrite when the file is
    /// missing or its size does not match the device.
    ///
    /// This is the device half of an explicit commit point: the bytes that
    /// reach the file are exactly the persistence domain — what a power
    /// failure at the moment of the sync would have preserved.
    ///
    /// Implemented as [`snapshot_sync`](Self::snapshot_sync) (under the
    /// lock) followed by [`SyncSnapshot::apply`] (off the lock); callers
    /// that want the apply on a background thread use those halves
    /// directly, usually through [`crate::FlushPipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Io`] on filesystem failure. The snapshot's
    /// lines are restored on failure, so a retry loses nothing.
    pub fn sync_image(&self, path: &Path) -> crate::Result<ImageSyncReport> {
        let snapshot = self.snapshot_sync(path);
        snapshot.apply(path).inspect_err(|_| {
            self.restore_unsynced(&snapshot);
        })
    }

    /// The snapshot half of [`sync_image`](Self::sync_image): captures
    /// (and copies) every cache line persisted since the last sync, marks
    /// those lines synced, and returns the delta for a later, lock-free
    /// [`SyncSnapshot::apply`]. Checks `path` only to decide between a
    /// delta and a full rewrite.
    pub fn snapshot_sync(&self, path: &Path) -> SyncSnapshot {
        let mut inner = self.inner.lock();
        let total = self.size / CACHE_LINE;
        let full = match std::fs::metadata(path) {
            Ok(m) => m.len() != self.size as u64,
            Err(_) => true,
        };
        if full {
            let runs = vec![(0, inner.persisted.clone())];
            inner.unsynced.iter_mut().for_each(|w| *w = 0);
            return SyncSnapshot {
                device_size: self.size,
                full: true,
                lines: total,
                runs,
            };
        }
        // Word-skipping scan: commits are usually sparse relative to the
        // device, so the bitmap is mostly zero words. Testing one `u64`
        // per 64 lines (instead of every line bit) makes the seal cost
        // proportional to the delta, not the device size.
        let mut runs = Vec::new();
        let mut lines = 0;
        let mut run_start: Option<usize> = None;
        let close_run = |runs: &mut Vec<(usize, Vec<u8>)>,
                         start: Option<usize>,
                         end: usize,
                         persisted: &[u8]| {
            if let Some(start) = start {
                let lo = start * CACHE_LINE;
                let hi = end * CACHE_LINE;
                runs.push((lo, persisted[lo..hi].to_vec()));
            }
        };
        for (w, &word) in inner.unsynced.iter().enumerate() {
            if word == 0 {
                close_run(&mut runs, run_start.take(), w * 64, &inner.persisted);
                continue;
            }
            if word == u64::MAX && (w + 1) * 64 <= total {
                // Fully dirty word: the run continues (or starts) across it.
                run_start.get_or_insert(w * 64);
                lines += 64;
                continue;
            }
            for bit in 0..64 {
                let line = w * 64 + bit;
                if line >= total {
                    break;
                }
                if word & (1 << bit) != 0 {
                    run_start.get_or_insert(line);
                    lines += 1;
                } else {
                    close_run(&mut runs, run_start.take(), line, &inner.persisted);
                }
            }
        }
        close_run(&mut runs, run_start.take(), total, &inner.persisted);
        inner.unsynced.iter_mut().for_each(|w| *w = 0);
        SyncSnapshot {
            device_size: self.size,
            full: false,
            lines,
            runs,
        }
    }

    /// Re-marks every line of `snapshot` as unsynced, undoing the
    /// bookkeeping of [`snapshot_sync`](Self::snapshot_sync) after a
    /// failed or abandoned apply. The next snapshot then re-captures the
    /// lines (with their *current* persisted contents, which are at least
    /// as new), so no committed line can silently miss the image.
    pub fn restore_unsynced(&self, snapshot: &SyncSnapshot) {
        let mut inner = self.inner.lock();
        for (off, bytes) in &snapshot.runs {
            let first = off / CACHE_LINE;
            let last = first + bytes.len() / CACHE_LINE;
            for line in first..last {
                inner.unsynced[line / 64] |= 1 << (line % 64);
            }
        }
    }

    /// Creates a device whose durable *and* volatile contents come from an
    /// image previously written by [`save_image`](Self::save_image).
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Io`] on filesystem failure and
    /// [`NvmError::ImageSizeMismatch`] if the image is not line-aligned.
    pub fn load_image(path: &Path, latency: LatencyModel) -> crate::Result<NvmDevice> {
        let image = std::fs::read(path)?;
        if image.is_empty() || image.len() % CACHE_LINE != 0 {
            return Err(NvmError::ImageSizeMismatch {
                device: 0,
                image: image.len(),
            });
        }
        let dev = NvmDevice::new(NvmConfig {
            size: image.len(),
            latency,
        });
        {
            let mut inner = dev.inner.lock();
            inner.persisted.copy_from_slice(&image);
            inner.volatile.copy_from_slice(&image);
            // The persisted state and the on-disk image agree by
            // construction, so a sync right after a load writes nothing.
            inner.unsynced.iter_mut().for_each(|w| *w = 0);
        }
        Ok(dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(size: usize) -> NvmDevice {
        NvmDevice::new(NvmConfig::with_size(size))
    }

    #[test]
    fn rounds_size_up_to_line() {
        assert_eq!(dev(1).size(), CACHE_LINE);
        assert_eq!(dev(65).size(), 2 * CACHE_LINE);
    }

    #[test]
    fn write_read_roundtrip() {
        let d = dev(1024);
        d.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(d.read_u64(16), 0x0102_0304_0506_0708);
    }

    #[test]
    fn bytes_roundtrip() {
        let d = dev(1024);
        d.write_bytes(100, b"hello nvm");
        let mut buf = [0u8; 9];
        d.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello nvm");
    }

    #[test]
    fn unflushed_writes_lost_on_crash() {
        let d = dev(1024);
        d.write_u64(0, 42);
        d.crash();
        assert_eq!(d.read_u64(0), 0);
    }

    #[test]
    fn flushed_writes_survive_crash() {
        let d = dev(1024);
        d.write_u64(0, 42);
        d.persist(0, 8);
        d.write_u64(8, 43); // same line, dirty again
        d.crash();
        assert_eq!(d.read_u64(0), 42);
        assert_eq!(d.read_u64(8), 0);
    }

    #[test]
    fn flush_is_line_granular() {
        let d = dev(1024);
        d.write_u64(0, 1);
        d.write_u64(8, 2); // same line as 0
        d.write_u64(128, 3); // different line
        d.persist(0, 8); // flushes the whole first line
        d.crash();
        assert_eq!(d.read_u64(0), 1);
        assert_eq!(d.read_u64(8), 2);
        assert_eq!(d.read_u64(128), 0);
    }

    #[test]
    fn fill_then_flush() {
        let d = dev(1024);
        d.fill(64, 128, 0xAB);
        d.persist(64, 128);
        d.crash();
        let mut buf = [0u8; 128];
        d.read_bytes(64, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn clean_lines_are_not_recounted() {
        let d = dev(1024);
        d.write_u64(0, 1);
        d.persist(0, 8);
        let flushes = d.stats().line_flushes;
        d.persist(0, 8); // nothing dirty
        assert_eq!(d.stats().line_flushes, flushes);
    }

    #[test]
    fn scheduled_crash_drops_later_flushes() {
        let d = dev(1024);
        d.schedule_crash_after_line_flushes(1);
        d.write_u64(0, 1);
        d.persist(0, 8); // flush #1: succeeds
        d.write_u64(128, 2);
        d.persist(128, 8); // flush #2: dropped
        assert!(d.has_crashed());
        d.recover();
        assert_eq!(d.read_u64(0), 1);
        assert_eq!(d.read_u64(128), 0);
    }

    #[test]
    fn scheduled_crash_at_zero_drops_everything() {
        let d = dev(1024);
        d.schedule_crash_after_line_flushes(0);
        d.write_u64(0, 9);
        d.persist(0, 8);
        d.recover();
        assert_eq!(d.read_u64(0), 0);
    }

    #[test]
    fn stats_count_operations() {
        let d = dev(1024);
        d.write_u64(0, 1);
        d.read_u64(0);
        d.persist(0, 8);
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.line_flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.bytes_written, 8);
    }

    #[test]
    fn latency_accumulates_simulated_time() {
        let d = NvmDevice::new(NvmConfig {
            size: 1024,
            latency: LatencyModel::nvm(),
        });
        d.write_u64(0, 1);
        d.persist(0, 8);
        assert!(d.stats().simulated_ns > 0);
        let before = d.stats().simulated_ns;
        d.read_u64(0);
        assert!(d.stats().simulated_ns > before);
    }

    #[test]
    fn image_save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(1024);
        d.write_u64(256, 77);
        d.persist(256, 8);
        d.write_u64(512, 88); // not persisted: must not be in the image
        d.save_image(&path).unwrap();

        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        assert_eq!(d2.read_u64(256), 77);
        assert_eq!(d2.read_u64(512), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_image_writes_only_persisted_deltas() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(4096);
        d.write_u64(0, 1);
        d.persist(0, 8);
        // First sync: no file yet, full rewrite.
        let r = d.sync_image(&path).unwrap();
        assert!(r.full_rewrite);
        assert_eq!(r.bytes_written, d.size());
        // Nothing new persisted: the next sync writes zero bytes.
        let r = d.sync_image(&path).unwrap();
        assert!(!r.full_rewrite);
        assert_eq!(r.bytes_written, 0);
        // Persist two distant lines: exactly two lines are written.
        d.write_u64(128, 2);
        d.write_u64(1024, 3);
        d.persist(128, 8);
        d.persist(1024, 8);
        d.write_u64(2048, 4); // never flushed: must not reach the image
        let r = d.sync_image(&path).unwrap();
        assert_eq!(r.lines_synced, 2);
        assert_eq!(r.bytes_written, 2 * CACHE_LINE);
        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        assert_eq!(d2.read_u64(0), 1);
        assert_eq!(d2.read_u64(128), 2);
        assert_eq!(d2.read_u64(1024), 3);
        assert_eq!(d2.read_u64(2048), 0, "unpersisted write stayed out");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_image_coalesces_contiguous_runs() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-sync2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(4096);
        d.sync_image(&path).unwrap();
        d.fill(0, 256, 0xEE);
        d.persist(0, 256);
        let r = d.sync_image(&path).unwrap();
        assert_eq!(r.lines_synced, 4);
        assert_eq!(r.bytes_written, 256);
        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        let mut buf = [0u8; 256];
        d2.read_bytes(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xEE));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_pins_bytes_at_seal_time() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(4096);
        d.sync_image(&path).unwrap();
        d.write_u64(0, 5);
        d.persist(0, 8);
        let snap = d.snapshot_sync(&path);
        assert_eq!(snap.lines(), 1);
        assert!(!snap.is_full_rewrite());
        // Re-persist the same line before the apply: the snapshot's copy
        // wins, the newer store waits for the next snapshot.
        d.write_u64(0, 6);
        d.persist(0, 8);
        snap.apply(&path).unwrap();
        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        assert_eq!(d2.read_u64(0), 5);
        let next = d.snapshot_sync(&path);
        assert_eq!(next.lines(), 1, "re-dirtied line is captured again");
        next.apply(&path).unwrap();
        let d3 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        assert_eq!(d3.read_u64(0), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_sync_captures_exact_lines_across_word_boundaries() {
        // The word-skipping bitmap scan must produce byte-identical runs
        // to a per-line scan: exercise empty words, a fully-set word, runs
        // straddling 64-line word boundaries, and an isolated tail line.
        let dir = std::env::temp_dir().join(format!("espresso-nvm-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(1 << 20); // 16384 lines = 256 bitmap words
        d.sync_image(&path).unwrap();
        let mut expect_lines = 0;
        // A full 64-line word (lines 128..192).
        for line in 128..192 {
            d.write_u64(line * CACHE_LINE, line as u64);
            d.persist(line * CACHE_LINE, 8);
            expect_lines += 1;
        }
        // A run straddling the word boundary at line 320.
        for line in 318..323 {
            d.write_u64(line * CACHE_LINE, line as u64);
            d.persist(line * CACHE_LINE, 8);
            expect_lines += 1;
        }
        // An isolated line far away (thousands of zero words skipped).
        let last = (1 << 20) / CACHE_LINE - 1;
        d.write_u64(last * CACHE_LINE, 777);
        d.persist(last * CACHE_LINE, 8);
        expect_lines += 1;
        let r = d.sync_image(&path).unwrap();
        assert_eq!(r.lines_synced, expect_lines);
        assert_eq!(r.bytes_written, expect_lines * CACHE_LINE);
        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        for line in (128..192).chain(318..323) {
            assert_eq!(d2.read_u64(line * CACHE_LINE), line as u64);
        }
        assert_eq!(d2.read_u64(last * CACHE_LINE), 777);
        // Everything synced: the next delta is empty.
        assert_eq!(d.sync_image(&path).unwrap().bytes_written, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_unsynced_recaptures_abandoned_lines() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-rest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(4096);
        d.sync_image(&path).unwrap();
        d.write_u64(256, 9);
        d.persist(256, 8);
        let snap = d.snapshot_sync(&path);
        // Abandon the apply (simulated crash of the sync worker).
        d.restore_unsynced(&snap);
        drop(snap);
        let r = d.sync_image(&path).unwrap();
        assert_eq!(r.lines_synced, 1, "restored line syncs on the retry");
        let d2 = NvmDevice::load_image(&path, LatencyModel::zero()).unwrap();
        assert_eq!(d2.read_u64(256), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_apply_refuses_a_replaced_image() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-repl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.img");
        let d = dev(4096);
        d.sync_image(&path).unwrap();
        d.write_u64(0, 1);
        d.persist(0, 8);
        let snap = d.snapshot_sync(&path);
        std::fs::write(&path, [0u8; 16]).unwrap();
        assert!(matches!(
            snap.apply(&path),
            Err(NvmError::ImageSizeMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_image_rejects_bad_size() {
        let dir = std::env::temp_dir().join(format!("espresso-nvm-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.img");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            NvmDevice::load_image(&path, LatencyModel::zero()),
            Err(NvmError::ImageSizeMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        dev(64).read_u64(60);
    }

    #[test]
    fn clones_share_state() {
        let d = dev(1024);
        let d2 = d.clone();
        d.write_u64(0, 5);
        assert_eq!(d2.read_u64(0), 5);
    }
}
