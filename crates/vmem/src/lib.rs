//! Simulated virtual memory: the substrate QuickStore's memory-mapped
//! architecture stands on.
//!
//! The real QuickStore `mmap`s database pages into 8 KB *virtual frames*
//! and manipulates per-page protection so that the first write to a frame
//! raises SIGSEGV and lands in the QuickStore fault handler (paper §3.2.1).
//! This crate reproduces that mechanism deterministically in software:
//!
//! * an address space of frames, each [`qs_types::PAGE_SIZE`] bytes;
//! * per-frame protection bits ([`Prot`]);
//! * the write *check* ([`Mmu::check_write`]) that classifies a store
//!   exactly the way the MMU + signal machinery would: fine, mapping fault,
//!   or write-protection fault.
//!
//! The store layered above reads a frame's protection ([`Mmu::prot`])
//! before every object access — for a read that is the whole check: any
//! access but [`Prot::None`] admits it — and checks every store, running
//! its fault handler on a fault: the same control flow as hardware
//! delivery, minus the signal trampoline (whose CPU cost is carried by the
//! performance model's `fault_overhead_instr`).
//!
//! Substitution note (DESIGN.md §2): using real `mmap`/`mprotect` would add
//! nothing to the algorithms under study and would make the crash tests
//! nondeterministic and platform-bound.

use qs_trace::{TraceCat, Tracer};
use qs_types::{FrameId, QsError, QsResult, VAddr, PAGE_SIZE};
use std::sync::Arc;

/// Per-frame protection, mirroring `PROT_NONE` / `PROT_READ` /
/// `PROT_READ|PROT_WRITE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prot {
    /// Not mapped (or mapped with no access): any touch faults.
    #[default]
    None,
    /// Read-only: reads pass, writes raise a protection fault. This is the
    /// state QuickStore leaves a freshly mapped page in, so that the first
    /// update can be intercepted to enable recovery.
    Read,
    /// Full access: the page has recovery enabled (or the scheme does not
    /// need write interception).
    ReadWrite,
}

/// How an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessFault {
    /// The frame is not mapped (`Prot::None`): QuickStore must fetch and
    /// map the page (a *read fault* in the paper's terminology).
    Unmapped(FrameId),
    /// The frame is mapped read-only and the access is a write: QuickStore
    /// must enable recovery for the page (a *write fault*).
    WriteProtected(FrameId),
}

/// The software MMU: an allocatable space of protected frames.
///
/// The MMU knows nothing about pages or buffers — it is pure protection
/// state. The store above owns the mapping frame ↔ database page.
#[derive(Debug, Default)]
pub struct Mmu {
    prot: Vec<Prot>,
    free: Vec<FrameId>,
    /// Protection changes performed (each models an `mprotect` call).
    protect_calls: u64,
    /// Observability hook (disabled by default: one branch per fault).
    tracer: Arc<Tracer>,
}

impl Mmu {
    pub fn new() -> Mmu {
        Mmu::default()
    }

    /// Route fault events into `tracer` (the store installs this).
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    /// Number of frames ever allocated (address-space size).
    pub fn frame_count(&self) -> usize {
        self.prot.len()
    }

    /// `mprotect` calls performed so far (performance-model input).
    pub fn protect_calls(&self) -> u64 {
        self.protect_calls
    }

    /// Reserve a frame (fresh or recycled), initially `Prot::None`.
    pub fn alloc_frame(&mut self) -> FrameId {
        if let Some(f) = self.free.pop() {
            self.prot[f.index()] = Prot::None;
            return f;
        }
        let f = FrameId(self.prot.len() as u32);
        self.prot.push(Prot::None);
        f
    }

    /// Release a frame for reuse (the page it mapped was evicted).
    pub fn free_frame(&mut self, frame: FrameId) {
        if let Some(p) = self.prot.get_mut(frame.index()) {
            *p = Prot::None;
            self.free.push(frame);
        }
    }

    /// Change a frame's protection (models `mprotect`).
    pub fn protect(&mut self, frame: FrameId, prot: Prot) -> QsResult<()> {
        let slot = self.prot.get_mut(frame.index()).ok_or_else(|| QsError::UnmappedAddress {
            detail: format!("frame {frame:?} beyond address space"),
        })?;
        *slot = prot;
        self.protect_calls += 1;
        Ok(())
    }

    #[inline]
    pub fn prot(&self, frame: FrameId) -> Prot {
        self.prot.get(frame.index()).copied().unwrap_or(Prot::None)
    }

    fn frame_of_access(&self, va: VAddr, len: usize) -> QsResult<FrameId> {
        if len == 0 || len > PAGE_SIZE {
            return Err(QsError::UnmappedAddress { detail: format!("access of {len} bytes") });
        }
        let first = va.frame();
        let last = va.add(len - 1).frame();
        if first != last {
            return Err(QsError::CrossesFrameBoundary);
        }
        if first.index() >= self.prot.len() {
            return Err(QsError::UnmappedAddress { detail: format!("{va} beyond address space") });
        }
        Ok(first)
    }

    /// Classify a write access: `Ok(frame)` if it would succeed, a fault
    /// otherwise. Errors are genuine program errors (wild pointers).
    pub fn check_write(&self, va: VAddr, len: usize) -> QsResult<Result<FrameId, AccessFault>> {
        let frame = self.frame_of_access(va, len)?;
        Ok(match self.prot(frame) {
            Prot::None => {
                self.tracer.event(TraceCat::Fault, "write_unmapped", frame.index() as u64, 1);
                Err(AccessFault::Unmapped(frame))
            }
            Prot::Read => {
                self.tracer.event(TraceCat::Fault, "write_protected", frame.index() as u64, 1);
                Err(AccessFault::WriteProtected(frame))
            }
            Prot::ReadWrite => Ok(frame),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_protect_check_cycle() {
        let mut mmu = Mmu::new();
        let f = mmu.alloc_frame();
        let va = VAddr::new(f, 100);
        // Unmapped: a write faults (and a read: the frame admits nothing).
        assert_eq!(mmu.prot(f), Prot::None);
        assert_eq!(mmu.check_write(va, 4).unwrap(), Err(AccessFault::Unmapped(f)));
        // Read-only: writes raise a protection fault. This is the paper's
        // recovery-interception hook.
        mmu.protect(f, Prot::Read).unwrap();
        assert_eq!(mmu.check_write(va, 4).unwrap(), Err(AccessFault::WriteProtected(f)));
        // Read-write: everything passes.
        mmu.protect(f, Prot::ReadWrite).unwrap();
        assert_eq!(mmu.check_write(va, 4).unwrap(), Ok(f));
        assert_eq!(mmu.protect_calls(), 2);
    }

    #[test]
    fn frames_recycle_with_none_protection() {
        let mut mmu = Mmu::new();
        let f = mmu.alloc_frame();
        mmu.protect(f, Prot::ReadWrite).unwrap();
        mmu.free_frame(f);
        let g = mmu.alloc_frame();
        assert_eq!(g, f, "freed frame is reused");
        assert_eq!(mmu.prot(g), Prot::None, "reused frame starts unmapped");
        assert_eq!(mmu.frame_count(), 1);
    }

    #[test]
    fn cross_frame_access_rejected() {
        let mut mmu = Mmu::new();
        let f = mmu.alloc_frame();
        let _g = mmu.alloc_frame();
        let near_end = VAddr::new(f, PAGE_SIZE - 2);
        assert!(matches!(mmu.check_write(near_end, 4), Err(QsError::CrossesFrameBoundary)));
        // Exactly to the end is fine.
        assert!(mmu.check_write(near_end, 2).is_ok());
    }

    #[test]
    fn wild_addresses_are_errors_not_faults() {
        let mmu = Mmu::new();
        let va = VAddr::new(FrameId(99), 0);
        assert!(matches!(mmu.check_write(va, 4), Err(QsError::UnmappedAddress { .. })));
        let mut mmu = Mmu::new();
        let f = mmu.alloc_frame();
        assert!(mmu.check_write(VAddr::new(f, 0), 0).is_err(), "zero-length access");
        assert!(mmu.protect(FrameId(5), Prot::Read).is_err());
    }

    #[test]
    fn whole_frame_access_allowed() {
        let mut mmu = Mmu::new();
        let f = mmu.alloc_frame();
        mmu.protect(f, Prot::ReadWrite).unwrap();
        assert!(mmu.check_write(VAddr::new(f, 0), PAGE_SIZE).unwrap().is_ok());
        assert!(mmu.check_write(VAddr::new(f, 0), PAGE_SIZE + 1).is_err());
    }
}
