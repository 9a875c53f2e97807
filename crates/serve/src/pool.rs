//! Device-slice allocation: which SMs and CPU worker slots of one device
//! are free, and how a request is carved out of them.
//!
//! A tenant asks for `sms` streaming multiprocessors and `cpu_slots` worker
//! threads; the [`PartitionAllocator`] carves a *contiguous, disjoint* SM
//! slice out of the device (first fit, lowest base first — a deterministic
//! policy) or reports that the request cannot be placed right now. The
//! dispatch core owns one allocator per fleet device; work reaches the
//! schedulers only through a carved partition, which restricts the GPU
//! simulation to the slice and the CPU side to the held slots, so
//! neighbors never observe each other and every simulated quantity is
//! bit-identical to a solo run on an equal-sized partition.

use crate::error::Rejected;
use japonica_gpusim::DevicePartition;

/// What one job asks the pool for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Streaming multiprocessors (≥ 1, ≤ the device's SM count).
    pub sms: u32,
    /// CPU worker slots (≥ 1, ≤ the pool's slot count).
    pub cpu_slots: u32,
}

impl ResourceRequest {
    /// A request for `sms` SMs and `cpu_slots` CPU slots.
    pub fn new(sms: u32, cpu_slots: u32) -> ResourceRequest {
        ResourceRequest { sms, cpu_slots }
    }
}

/// Pure allocation state of one device: which SMs and CPU slots are free.
#[derive(Debug, Clone)]
pub struct PartitionAllocator {
    sm_taken: Vec<bool>,
    cpu_free: u32,
    cpu_slots: u32,
}

impl PartitionAllocator {
    /// An allocator over `sm_count` SMs and `cpu_slots` CPU slots.
    pub fn new(sm_count: u32, cpu_slots: u32) -> PartitionAllocator {
        PartitionAllocator {
            sm_taken: vec![false; sm_count as usize],
            cpu_free: cpu_slots,
            cpu_slots,
        }
    }

    /// Total SMs managed.
    pub fn sm_count(&self) -> u32 {
        self.sm_taken.len() as u32
    }

    /// Total CPU slots managed.
    pub fn cpu_slots(&self) -> u32 {
        self.cpu_slots
    }

    /// Currently free SMs (not necessarily contiguous).
    pub fn free_sms(&self) -> u32 {
        self.sm_taken.iter().filter(|t| !**t).count() as u32
    }

    /// Currently free CPU slots.
    pub fn free_cpu_slots(&self) -> u32 {
        self.cpu_free
    }

    /// Validate that `req` could *ever* be satisfied by this device.
    pub fn admissible(&self, req: ResourceRequest) -> Result<(), Rejected> {
        let (sms, slots) = (self.sm_count(), self.cpu_slots);
        if req.sms == 0 || req.cpu_slots == 0 {
            return Err(Rejected::InvalidRequest(
                "a job needs at least 1 SM and 1 CPU slot".into(),
            ));
        }
        if req.sms > sms || req.cpu_slots > slots {
            return Err(Rejected::InvalidRequest(format!(
                "request {}sm/{}cpu exceeds the pool ({sms}sm/{slots}cpu)",
                req.sms, req.cpu_slots
            )));
        }
        Ok(())
    }

    /// First-fit: the lowest contiguous run of `sms` free SMs, plus
    /// `cpu_slots` CPU slots. Returns the carved partition or `None` when
    /// the request cannot be placed right now.
    pub fn try_alloc(&mut self, req: ResourceRequest) -> Option<DevicePartition> {
        if req.sms == 0 || req.cpu_slots == 0 || req.cpu_slots > self.cpu_free {
            return None;
        }
        let n = self.sm_taken.len();
        let want = req.sms as usize;
        let mut base = 0;
        while base + want <= n {
            match (base..base + want).position(|i| self.sm_taken[i]) {
                // Skip past the blocking SM — everything before it is
                // useless as a base.
                Some(p) => base += p + 1,
                None => {
                    for slot in &mut self.sm_taken[base..base + want] {
                        *slot = true;
                    }
                    self.cpu_free -= req.cpu_slots;
                    return Some(DevicePartition {
                        sm_base: base as u32,
                        sm_count: req.sms,
                    });
                }
            }
        }
        None
    }

    /// Return a previously allocated partition and its CPU slots.
    pub fn release(&mut self, part: DevicePartition, cpu_slots: u32) {
        for i in part.sm_range() {
            self.sm_taken[i as usize] = false;
        }
        self.cpu_free = (self.cpu_free + cpu_slots).min(self.cpu_slots);
    }
}

/// A snapshot of one device's utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSnapshot {
    /// Total SMs of the device.
    pub sm_count: u32,
    /// SMs free right now.
    pub free_sms: u32,
    /// Total CPU worker slots.
    pub cpu_slots: u32,
    /// CPU slots free right now.
    pub free_cpu_slots: u32,
    /// Mean SM occupancy since the service started: Σ(held seconds × SMs)
    /// of *released* slices over (elapsed × total SMs), in [0, 1].
    pub sm_occupancy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_is_deterministic_and_disjoint() {
        let mut a = PartitionAllocator::new(14, 16);
        let p1 = a.try_alloc(ResourceRequest::new(7, 8)).unwrap();
        let p2 = a.try_alloc(ResourceRequest::new(7, 8)).unwrap();
        assert_eq!((p1.sm_base, p1.sm_count), (0, 7));
        assert_eq!((p2.sm_base, p2.sm_count), (7, 7));
        assert!(a.try_alloc(ResourceRequest::new(1, 1)).is_none());
        a.release(p1, 8);
        // Freed low slice is reused first.
        let p3 = a.try_alloc(ResourceRequest::new(3, 4)).unwrap();
        assert_eq!(p3.sm_base, 0);
    }

    #[test]
    fn fragmented_device_skips_holes() {
        let mut a = PartitionAllocator::new(8, 8);
        let p1 = a.try_alloc(ResourceRequest::new(2, 1)).unwrap(); // [0,2)
        let p2 = a.try_alloc(ResourceRequest::new(2, 1)).unwrap(); // [2,4)
        let _p3 = a.try_alloc(ResourceRequest::new(2, 1)).unwrap(); // [4,6)
        a.release(p1, 1);
        a.release(p2, 1); // [0,4) and [6,8) free
        let p = a.try_alloc(ResourceRequest::new(4, 1)).unwrap();
        assert_eq!((p.sm_base, p.sm_count), (0, 4));
        // Only [6,8) left contiguous.
        assert!(a.try_alloc(ResourceRequest::new(3, 1)).is_none());
        let tail = a.try_alloc(ResourceRequest::new(2, 1)).unwrap();
        assert_eq!(tail.sm_base, 6);
    }

    #[test]
    fn admissibility_screens_impossible_requests() {
        let a = PartitionAllocator::new(14, 16);
        assert!(a.admissible(ResourceRequest::new(14, 16)).is_ok());
        assert!(matches!(
            a.admissible(ResourceRequest::new(15, 1)),
            Err(Rejected::InvalidRequest(_))
        ));
        assert!(matches!(
            a.admissible(ResourceRequest::new(0, 1)),
            Err(Rejected::InvalidRequest(_))
        ));
    }
}
