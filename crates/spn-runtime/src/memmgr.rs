//! The thread-safe device memory manager.
//!
//! TaPaSCo's memory-management API cannot split the device address space
//! into distinct regions, so the paper's runtime (Section IV-B) brings
//! its own manager: one allocator per HBM memory block, thread-safe, so
//! each accelerator's control threads can allocate buffers in *their*
//! channel without global coordination.
//!
//! Each per-channel allocator is a first-fit free list with coalescing
//! on free — simple, deterministic and plenty fast for the block-wise
//! allocation pattern (a handful of live buffers per channel).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A device-memory buffer handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceBuffer {
    /// The HBM channel (memory block) the buffer lives in.
    pub channel: u32,
    /// Byte offset within the channel's region.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous space in the channel.
    OutOfMemory {
        /// Requested size.
        requested: u64,
        /// Largest free block currently available.
        largest_free: u64,
    },
    /// Channel index out of range.
    NoSuchChannel(u32),
    /// Free of a buffer that was not allocated (or double free).
    InvalidFree(DeviceBuffer),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of device memory: requested {requested} B, largest free block {largest_free} B"
            ),
            AllocError::NoSuchChannel(c) => write!(f, "no such HBM channel: {c}"),
            AllocError::InvalidFree(b) => write!(f, "invalid free of {b:?}"),
        }
    }
}
impl std::error::Error for AllocError {}

/// Free-list allocator for one channel region.
#[derive(Debug)]
struct ChannelAllocator {
    /// Sorted, non-adjacent free ranges as (offset, len).
    free: Vec<(u64, u64)>,
    /// Live allocations as (offset, len), for free() validation.
    live: Vec<(u64, u64)>,
}

impl ChannelAllocator {
    fn new(capacity: u64) -> Self {
        ChannelAllocator {
            free: vec![(0, capacity)],
            live: Vec::new(),
        }
    }

    fn alloc(&mut self, len: u64, align: u64) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            let aligned = (off + align - 1) & !(align - 1);
            let pad = aligned - off;
            if flen >= pad + len {
                // Carve [aligned, aligned+len) out of the block.
                self.free.remove(i);
                if pad > 0 {
                    self.free.insert(i, (off, pad));
                }
                let tail = flen - pad - len;
                if tail > 0 {
                    let at = self
                        .free
                        .iter()
                        .position(|&(o, _)| o > aligned)
                        .unwrap_or(self.free.len());
                    self.free.insert(at, (aligned + len, tail));
                }
                self.live.push((aligned, len));
                return Some(aligned);
            }
        }
        None
    }

    fn free_block(&mut self, offset: u64, len: u64) -> bool {
        let Some(pos) = self.live.iter().position(|&(o, l)| o == offset && l == len) else {
            return false;
        };
        self.live.swap_remove(pos);
        // Insert sorted and coalesce neighbours.
        let at = self
            .free
            .iter()
            .position(|&(o, _)| o > offset)
            .unwrap_or(self.free.len());
        self.free.insert(at, (offset, len));
        // Coalesce with next.
        if at + 1 < self.free.len() && self.free[at].0 + self.free[at].1 == self.free[at + 1].0 {
            self.free[at].1 += self.free[at + 1].1;
            self.free.remove(at + 1);
        }
        // Coalesce with previous.
        if at > 0 && self.free[at - 1].0 + self.free[at - 1].1 == self.free[at].0 {
            self.free[at - 1].1 += self.free[at].1;
            self.free.remove(at);
        }
        true
    }

    fn largest_free(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).sum()
    }
}

/// The manager: one lock-protected allocator per HBM channel.
pub struct DeviceMemoryManager {
    channels: Vec<Mutex<ChannelAllocator>>,
    /// Allocation alignment (AXI burst alignment; 4 KiB like the paper's
    /// DMA page granularity).
    align: u64,
}

impl DeviceMemoryManager {
    /// Create a manager for `num_channels` regions of `channel_capacity`
    /// bytes each.
    pub(crate) fn new(num_channels: u32, channel_capacity: u64) -> Self {
        DeviceMemoryManager {
            channels: (0..num_channels)
                .map(|_| Mutex::new(ChannelAllocator::new(channel_capacity)))
                .collect(),
            align: 4096,
        }
    }

    /// Allocate `len` bytes in `channel`.
    pub(crate) fn alloc(&self, channel: u32, len: u64) -> Result<DeviceBuffer, AllocError> {
        let a = self
            .channels
            .get(channel as usize)
            .ok_or(AllocError::NoSuchChannel(channel))?;
        let mut a = a.lock();
        match a.alloc(len.max(1), self.align) {
            Some(offset) => Ok(DeviceBuffer {
                channel,
                offset,
                len,
            }),
            None => Err(AllocError::OutOfMemory {
                requested: len,
                largest_free: a.largest_free(),
            }),
        }
    }

    /// Free a previously allocated buffer.
    pub(crate) fn free(&self, buf: DeviceBuffer) -> Result<(), AllocError> {
        let a = self
            .channels
            .get(buf.channel as usize)
            .ok_or(AllocError::NoSuchChannel(buf.channel))?;
        if a.lock().free_block(buf.offset, buf.len.max(1)) {
            Ok(())
        } else {
            Err(AllocError::InvalidFree(buf))
        }
    }

    /// Free bytes remaining in a channel.
    pub fn free_bytes(&self, channel: u32) -> Result<u64, AllocError> {
        Ok(self
            .channels
            .get(channel as usize)
            .ok_or(AllocError::NoSuchChannel(channel))?
            .lock()
            .free_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn mgr() -> DeviceMemoryManager {
        DeviceMemoryManager::new(4, 1 << 20)
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let m = mgr();
        let b = m.alloc(0, 1000).unwrap();
        assert_eq!(b.channel, 0);
        assert_eq!(b.offset % 4096, 0);
        m.free(b).unwrap();
        assert_eq!(m.free_bytes(0).unwrap(), 1 << 20);
    }

    #[test]
    fn channels_are_independent_regions() {
        let m = mgr();
        let a = m.alloc(0, 1000).unwrap();
        let b = m.alloc(1, 1000).unwrap();
        // Same offset is fine: distinct address spaces.
        assert_eq!(a.offset, b.offset);
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let m = mgr();
        let mut bufs = Vec::new();
        for _ in 0..100 {
            bufs.push(m.alloc(0, 5000).unwrap());
        }
        for (i, a) in bufs.iter().enumerate() {
            for b in &bufs[i + 1..] {
                let a_end = a.offset + a.len;
                let b_end = b.offset + b.len;
                assert!(
                    a_end <= b.offset || b_end <= a.offset,
                    "{a:?} overlaps {b:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_memory_reports_largest_block() {
        let m = DeviceMemoryManager::new(1, 100 * 4096);
        let _a = m.alloc(0, 50 * 4096).unwrap();
        match m.alloc(0, 60 * 4096) {
            Err(AllocError::OutOfMemory { largest_free, .. }) => {
                assert!(largest_free < 60 * 4096);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_coalesces_neighbours() {
        let m = DeviceMemoryManager::new(1, 64 * 4096);
        let a = m.alloc(0, 4096).unwrap();
        let b = m.alloc(0, 4096).unwrap();
        let c = m.alloc(0, 4096).unwrap();
        m.free(b).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        // After freeing everything, one large allocation must fit again.
        let big = m.alloc(0, 64 * 4096 - 4096).unwrap();
        m.free(big).unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let m = mgr();
        let b = m.alloc(0, 100).unwrap();
        m.free(b).unwrap();
        assert!(matches!(m.free(b), Err(AllocError::InvalidFree(_))));
    }

    #[test]
    fn invalid_channel_rejected() {
        let m = mgr();
        assert!(matches!(m.alloc(9, 10), Err(AllocError::NoSuchChannel(9))));
        assert!(m.free_bytes(9).is_err());
    }

    #[test]
    fn concurrent_alloc_free_is_safe_and_leak_free() {
        let m = Arc::new(DeviceMemoryManager::new(2, 8 << 20));
        let mut handles = Vec::new();
        for t in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let ch = t % 2;
                for _ in 0..200 {
                    let b = m.alloc(ch, 4096 * ((t as u64 % 4) + 1)).unwrap();
                    m.free(b).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.free_bytes(0).unwrap(), 8 << 20);
        assert_eq!(m.free_bytes(1).unwrap(), 8 << 20);
    }

    #[test]
    fn alignment_is_respected() {
        let m = mgr();
        let a = m.alloc(0, 1).unwrap();
        let b = m.alloc(0, 1).unwrap();
        assert_eq!(a.offset % 4096, 0);
        assert_eq!(b.offset % 4096, 0);
        assert_ne!(a.offset, b.offset);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Allocator: any sequence of allocations yields non-overlapping
        /// buffers; freeing everything restores full capacity.
        #[test]
        fn allocator_no_overlap_and_no_leak(sizes in prop::collection::vec(1u64..200_000, 1..40)) {
            let m = DeviceMemoryManager::new(1, 64 << 20);
            let mut live = Vec::new();
            for len in sizes {
                match m.alloc(0, len) {
                    Ok(b) => live.push(b),
                    Err(_) => break, // out of memory is a legal outcome
                }
            }
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    let a_end = a.offset + a.len;
                    let b_end = b.offset + b.len;
                    prop_assert!(a_end <= b.offset || b_end <= a.offset);
                }
            }
            for b in live {
                m.free(b).unwrap();
            }
            prop_assert_eq!(m.free_bytes(0).unwrap(), 64 << 20);
        }

        /// Allocator: interleaved alloc/free driven by a random script stays
        /// consistent (no double-free panics, capacity conserved).
        #[test]
        fn allocator_random_script(script in prop::collection::vec((0u8..2, 1u64..100_000), 1..100)) {
            let m = DeviceMemoryManager::new(2, 16 << 20);
            let mut live: Vec<DeviceBuffer> = Vec::new();
            for (op, x) in script {
                if op == 0 || live.is_empty() {
                    if let Ok(b) = m.alloc((x % 2) as u32, x) {
                        live.push(b);
                    }
                } else {
                    let idx = (x as usize) % live.len();
                    m.free(live.swap_remove(idx)).unwrap();
                }
            }
            let used: u64 = live.iter().map(|b| b.len.max(1).div_ceil(4096) * 4096).sum();
            let free: u64 = (0..2).map(|c| m.free_bytes(c).unwrap()).sum();
            prop_assert!(free >= 2 * (16 << 20) - used - 4096 * live.len() as u64);
            for b in live {
                m.free(b).unwrap();
            }
            prop_assert_eq!((0..2).map(|c| m.free_bytes(c).unwrap()).sum::<u64>(), 2 * (16u64 << 20));
        }
    }
}
