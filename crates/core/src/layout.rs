//! On-NVM layout of a PJH instance (§3.1, Figure 7/8).
//!
//! ```text
//! +--------------------+  offset 0
//! | metadata area      |  address hint, heap size, alloc cursor ("top"),
//! |                    |  global timestamp, gc-in-progress flag, offsets
//! +--------------------+
//! | name table         |  string -> Klass entry | root entry
//! +--------------------+
//! | Klass segment      |  append-only persistent klass records
//! +--------------------+
//! | mark bitmap (begin)|  1 bit per data-heap word   (§4.2)
//! | mark bitmap (end)  |  1 bit per data-heap word
//! | region done bitmap |  1 bit per region           (§4.2)
//! | region free bitmap |  1 bit per region
//! | region summaries   |  16 bytes per region (live words / live objects /
//! |                    |  reclaimable words / scan timestamp)
//! +--------------------+
//! | data heap          |  fixed-size regions, bump-allocated
//! +--------------------+
//! ```

use espresso_nvm::NvmDevice;

use crate::{PjhConfig, PjhError};

/// Klass segment size in bytes for a fresh heap (a whole number of cache
/// lines). A loaded heap uses the size recorded in its image.
const KLASS_SEGMENT_BYTES: usize = 256 << 10;

/// Magic number identifying a formatted PJH image.
pub const MAGIC: u64 = 0x4553_5052_4553_4f31; // "ESPRESO1"
/// Format version. Bumped to 2 when the per-region summary table was
/// added to the metadata segment; to 3 when summary entries widened from
/// 8 to 16 bytes to carry reclaimable words and the region's last scan
/// timestamp (the free-list rebuild inputs).
pub const VERSION: u64 = 3;

/// Byte offsets of the metadata-area fields (Figure 8 plus bookkeeping).
pub mod meta {
    /// Magic number.
    pub const MAGIC: usize = 0;
    /// Format version.
    pub const VERSION: usize = 8;
    /// Address hint: virtual base address the heap was created at (§3.3).
    pub const ADDRESS_HINT: usize = 16;
    /// Total device size in bytes.
    pub const HEAP_SIZE: usize = 24;
    /// Current allocation region index.
    pub const ALLOC_REGION: usize = 32;
    /// Allocation top: device offset of the next free byte (§4.1).
    pub const ALLOC_TOP: usize = 40;
    /// Global GC timestamp (§4.2).
    pub const GLOBAL_TIMESTAMP: usize = 48;
    /// Non-zero while a collection of the persistent space is in flight.
    pub const GC_IN_PROGRESS: usize = 56;
    /// Klass segment: device offset of the next free byte.
    pub const KLASS_SEGMENT_TOP: usize = 64;
    /// Region size in bytes.
    pub const REGION_SIZE: usize = 72;
    /// Number of data regions.
    pub const NUM_REGIONS: usize = 80;
    /// Offset of the name table.
    pub const NAME_TABLE_OFF: usize = 88;
    /// Name table capacity in entries.
    pub const NAME_TABLE_CAP: usize = 96;
    /// Offset of the klass segment.
    pub const KLASS_SEGMENT_OFF: usize = 104;
    /// Size of the klass segment in bytes.
    pub const KLASS_SEGMENT_SIZE: usize = 112;
    /// Offset of the begin-mark bitmap.
    pub const MARK_BEGIN_OFF: usize = 120;
    /// Offset of the end-mark bitmap.
    pub const MARK_END_OFF: usize = 128;
    /// Bytes per mark bitmap.
    pub const BITMAP_BYTES: usize = 136;
    /// Offset of the region done bitmap.
    pub const REGION_DONE_OFF: usize = 144;
    /// Offset of the region free bitmap.
    pub const REGION_FREE_OFF: usize = 152;
    /// Bytes per region bitmap.
    pub const REGION_BITMAP_BYTES: usize = 160;
    /// Offset of the data heap.
    pub const DATA_OFF: usize = 168;
    /// Size of the data heap in bytes.
    pub const DATA_SIZE: usize = 176;
    /// Offset of the free-bitmap snapshot taken at GC start (recovery input).
    pub const SAVED_FREE_OFF: usize = 184;
    /// Allocation region index saved at GC start (recovery input).
    pub const SAVED_ALLOC_REGION: usize = 192;
    /// Allocation top saved at GC start (recovery input).
    pub const SAVED_ALLOC_TOP: usize = 200;
    /// Offset of the per-region summary table (16 bytes per region: live
    /// words, live objects, reclaimable words, and the scan timestamp,
    /// each packed as a u32).
    pub const REGION_SUMMARY_OFF: usize = 208;
    /// GC timestamp the summary table was last written at (0 = table has
    /// never been written, or a write was torn and must not be trusted).
    pub const SUMMARY_TS: usize = 216;
    /// Configured allocation-buffer size in bytes (so the batching policy
    /// survives reload; 0 = strict per-object cursor persists).
    pub const PLAB_SIZE: usize = 224;
    /// Total bytes reserved for the metadata area.
    pub const AREA_SIZE: usize = 512;
}

/// Size in bytes of one name-table entry.
pub const NAME_ENTRY_SIZE: usize = 128;
/// Longest name storable in a name-table entry.
pub const MAX_NAME_LEN: usize = NAME_ENTRY_SIZE - 24;

/// Resolved byte offsets of every PJH area, cached in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Virtual base address of the mapping (address hint, possibly
    /// overridden at load time after a remap).
    pub base: u64,
    /// Region size in bytes.
    pub region_size: usize,
    /// Number of regions in the data heap.
    pub num_regions: usize,
    /// Name table offset.
    pub name_table_off: usize,
    /// Name table capacity (entries).
    pub name_table_cap: usize,
    /// Klass segment offset.
    pub klass_segment_off: usize,
    /// Klass segment size in bytes.
    pub klass_segment_size: usize,
    /// Begin-mark bitmap offset.
    pub mark_begin_off: usize,
    /// End-mark bitmap offset.
    pub mark_end_off: usize,
    /// Bytes per mark bitmap.
    pub bitmap_bytes: usize,
    /// Region done bitmap offset.
    pub region_done_off: usize,
    /// Region free bitmap offset.
    pub region_free_off: usize,
    /// Offset of the GC-start snapshot of the free bitmap (§4.3: the
    /// summary must be recomputable from state as of the *start* of the
    /// collection, so the pre-GC free bitmap is preserved here while the
    /// live one is rewritten at GC end).
    pub saved_free_off: usize,
    /// Bytes per region bitmap.
    pub region_bitmap_bytes: usize,
    /// Offset of the per-region summary table (the incremental collector's
    /// persisted live/free accounting; one 16-byte record per region).
    pub region_summary_off: usize,
    /// Bytes reserved for the region summary table.
    pub region_summary_bytes: usize,
    /// Data heap offset.
    pub data_off: usize,
    /// Data heap size in bytes.
    pub data_size: usize,
}

impl Layout {
    /// Computes a layout for a fresh heap on a device of `device_size`
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`PjhError::HeapTooSmall`] if the device cannot hold the metadata
    /// plus at least two regions.
    pub fn compute(device_size: usize, config: &PjhConfig) -> Result<Layout, PjhError> {
        let region_size = config.region_size.next_power_of_two().max(4096);
        let name_table_cap = config.name_table_capacity.max(16);
        let name_bytes = name_table_cap * NAME_ENTRY_SIZE;
        let fixed = meta::AREA_SIZE + name_bytes + KLASS_SEGMENT_BYTES;
        if device_size <= fixed + 2 * region_size {
            return Err(PjhError::HeapTooSmall { size: device_size });
        }
        let remaining = device_size - fixed;
        // Solve data_size + 2*data_size/64 + 2*(data_size/region)/8 <= remaining,
        // rounding data down to a whole number of regions.
        let mut num_regions = remaining / region_size;
        loop {
            if num_regions < 2 {
                return Err(PjhError::HeapTooSmall { size: device_size });
            }
            let data_size = num_regions * region_size;
            let bitmap_bytes = (data_size / 64 + 64).next_multiple_of(64);
            let region_bitmap_bytes = (num_regions.div_ceil(8) + 64).next_multiple_of(64);
            let region_summary_bytes = (num_regions * 16).next_multiple_of(64);
            if fixed + data_size + 2 * bitmap_bytes + 3 * region_bitmap_bytes + region_summary_bytes
                <= device_size
            {
                let name_table_off = meta::AREA_SIZE;
                let klass_segment_off = name_table_off + name_bytes;
                let mark_begin_off = klass_segment_off + KLASS_SEGMENT_BYTES;
                let mark_end_off = mark_begin_off + bitmap_bytes;
                let region_done_off = mark_end_off + bitmap_bytes;
                let region_free_off = region_done_off + region_bitmap_bytes;
                let saved_free_off = region_free_off + region_bitmap_bytes;
                let region_summary_off = saved_free_off + region_bitmap_bytes;
                let data_off = region_summary_off + region_summary_bytes;
                return Ok(Layout {
                    base: config.base_address,
                    region_size,
                    num_regions,
                    name_table_off,
                    name_table_cap,
                    klass_segment_off,
                    klass_segment_size: KLASS_SEGMENT_BYTES,
                    mark_begin_off,
                    mark_end_off,
                    bitmap_bytes,
                    region_done_off,
                    region_free_off,
                    saved_free_off,
                    region_bitmap_bytes,
                    region_summary_off,
                    region_summary_bytes,
                    data_off,
                    data_size,
                });
            }
            num_regions -= 1;
        }
    }

    /// Writes the metadata area for a freshly formatted heap.
    pub fn write_meta(&self, dev: &NvmDevice) {
        let w = |off, v: u64| dev.write_u64(off, v);
        w(meta::MAGIC, MAGIC);
        w(meta::VERSION, VERSION);
        w(meta::ADDRESS_HINT, self.base);
        w(meta::HEAP_SIZE, dev.size() as u64);
        w(meta::ALLOC_REGION, 0);
        w(meta::ALLOC_TOP, self.data_off as u64);
        w(meta::GLOBAL_TIMESTAMP, 1);
        w(meta::GC_IN_PROGRESS, 0);
        w(meta::KLASS_SEGMENT_TOP, self.klass_segment_off as u64);
        w(meta::REGION_SIZE, self.region_size as u64);
        w(meta::NUM_REGIONS, self.num_regions as u64);
        w(meta::NAME_TABLE_OFF, self.name_table_off as u64);
        w(meta::NAME_TABLE_CAP, self.name_table_cap as u64);
        w(meta::KLASS_SEGMENT_OFF, self.klass_segment_off as u64);
        w(meta::KLASS_SEGMENT_SIZE, self.klass_segment_size as u64);
        w(meta::MARK_BEGIN_OFF, self.mark_begin_off as u64);
        w(meta::MARK_END_OFF, self.mark_end_off as u64);
        w(meta::BITMAP_BYTES, self.bitmap_bytes as u64);
        w(meta::REGION_DONE_OFF, self.region_done_off as u64);
        w(meta::REGION_FREE_OFF, self.region_free_off as u64);
        w(meta::SAVED_FREE_OFF, self.saved_free_off as u64);
        w(meta::REGION_BITMAP_BYTES, self.region_bitmap_bytes as u64);
        w(meta::SAVED_ALLOC_REGION, 0);
        w(meta::SAVED_ALLOC_TOP, 0);
        w(meta::REGION_SUMMARY_OFF, self.region_summary_off as u64);
        w(meta::SUMMARY_TS, 0);
        w(meta::DATA_OFF, self.data_off as u64);
        w(meta::DATA_SIZE, self.data_size as u64);
        dev.persist(0, meta::AREA_SIZE);
    }

    /// Reads the layout back from a formatted device.
    ///
    /// # Errors
    ///
    /// [`PjhError::NotAHeap`] if the magic or version do not match, or the
    /// recorded size disagrees with the device.
    pub fn read_meta(dev: &NvmDevice) -> Result<Layout, PjhError> {
        if dev.size() < meta::AREA_SIZE {
            return Err(PjhError::NotAHeap);
        }
        let r = |off| dev.read_u64(off);
        if r(meta::MAGIC) != MAGIC || r(meta::VERSION) != VERSION {
            return Err(PjhError::NotAHeap);
        }
        if r(meta::HEAP_SIZE) != dev.size() as u64 {
            return Err(PjhError::NotAHeap);
        }
        Ok(Layout {
            base: r(meta::ADDRESS_HINT),
            region_size: r(meta::REGION_SIZE) as usize,
            num_regions: r(meta::NUM_REGIONS) as usize,
            name_table_off: r(meta::NAME_TABLE_OFF) as usize,
            name_table_cap: r(meta::NAME_TABLE_CAP) as usize,
            klass_segment_off: r(meta::KLASS_SEGMENT_OFF) as usize,
            klass_segment_size: r(meta::KLASS_SEGMENT_SIZE) as usize,
            mark_begin_off: r(meta::MARK_BEGIN_OFF) as usize,
            mark_end_off: r(meta::MARK_END_OFF) as usize,
            bitmap_bytes: r(meta::BITMAP_BYTES) as usize,
            region_done_off: r(meta::REGION_DONE_OFF) as usize,
            region_free_off: r(meta::REGION_FREE_OFF) as usize,
            saved_free_off: r(meta::SAVED_FREE_OFF) as usize,
            region_bitmap_bytes: r(meta::REGION_BITMAP_BYTES) as usize,
            region_summary_off: r(meta::REGION_SUMMARY_OFF) as usize,
            region_summary_bytes: (r(meta::NUM_REGIONS) as usize * 16).next_multiple_of(64),
            data_off: r(meta::DATA_OFF) as usize,
            data_size: r(meta::DATA_SIZE) as usize,
        })
    }

    /// Device offset of the first byte of region `i`.
    pub fn region_start(&self, i: usize) -> usize {
        debug_assert!(i < self.num_regions);
        self.data_off + i * self.region_size
    }

    /// Exclusive end offset of region `i`.
    pub fn region_end(&self, i: usize) -> usize {
        self.region_start(i) + self.region_size
    }

    /// Device offset of region `i`'s summary record.
    pub fn region_summary_entry(&self, i: usize) -> usize {
        debug_assert!(i < self.num_regions);
        self.region_summary_off + i * 16
    }

    /// Region index containing device offset `off`.
    pub fn region_of(&self, off: usize) -> usize {
        debug_assert!(off >= self.data_off && off < self.data_off + self.data_size);
        (off - self.data_off) / self.region_size
    }

    /// Data-heap word index of device offset `off` (for the mark bitmaps).
    pub fn word_of(&self, off: usize) -> usize {
        debug_assert!(off >= self.data_off);
        (off - self.data_off) / 8
    }

    /// Device offset of data-heap word index `w`.
    pub fn off_of_word(&self, w: usize) -> usize {
        self.data_off + w * 8
    }

    /// Translates a virtual address to a device offset.
    ///
    /// # Panics
    ///
    /// Panics if the address is below the base (a corrupted reference).
    pub fn to_off(&self, vaddr: u64) -> usize {
        assert!(
            vaddr >= self.base,
            "virtual address {vaddr:#x} below heap base {:#x}",
            self.base
        );
        (vaddr - self.base) as usize
    }

    /// Translates a device offset to a virtual address.
    pub fn to_vaddr(&self, off: usize) -> u64 {
        self.base + off as u64
    }

    /// Whether a device offset lies inside the data heap.
    pub fn in_data(&self, off: usize) -> bool {
        off >= self.data_off && off < self.data_off + self.data_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_nvm::NvmConfig;

    fn config() -> PjhConfig {
        PjhConfig::default()
    }

    #[test]
    fn compute_fits_device() {
        let cfg = config();
        let l = Layout::compute(8 << 20, &cfg).unwrap();
        assert!(l.data_off + l.data_size <= 8 << 20);
        assert_eq!(l.data_size % l.region_size, 0);
        assert!(l.num_regions >= 2);
        // Bitmaps must cover the data heap.
        assert!(l.bitmap_bytes * 8 >= l.data_size / 8);
        assert!(l.region_bitmap_bytes * 8 >= l.num_regions);
    }

    #[test]
    fn too_small_is_rejected() {
        assert!(matches!(
            Layout::compute(4096, &config()),
            Err(PjhError::HeapTooSmall { .. })
        ));
    }

    #[test]
    fn meta_roundtrip() {
        let cfg = config();
        let dev = NvmDevice::new(NvmConfig::with_size(8 << 20));
        let l = Layout::compute(dev.size(), &cfg).unwrap();
        l.write_meta(&dev);
        dev.crash(); // meta must already be persisted
        let l2 = Layout::read_meta(&dev).unwrap();
        assert_eq!(l, l2);
    }

    #[test]
    fn read_meta_rejects_blank_device() {
        let dev = NvmDevice::new(NvmConfig::with_size(1 << 20));
        assert!(matches!(Layout::read_meta(&dev), Err(PjhError::NotAHeap)));
    }

    #[test]
    fn region_math() {
        let cfg = config();
        let l = Layout::compute(8 << 20, &cfg).unwrap();
        assert_eq!(l.region_start(0), l.data_off);
        assert_eq!(l.region_of(l.data_off), 0);
        assert_eq!(l.region_of(l.data_off + l.region_size), 1);
        assert_eq!(l.off_of_word(l.word_of(l.data_off + 16)), l.data_off + 16);
    }

    #[test]
    fn vaddr_translation() {
        let cfg = config();
        let l = Layout::compute(8 << 20, &cfg).unwrap();
        let off = l.data_off + 64;
        assert_eq!(l.to_off(l.to_vaddr(off)), off);
    }
}
