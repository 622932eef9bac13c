//! Storage substrate: 8 KB slotted pages, stable (crash-surviving) media,
//! and page volumes.
//!
//! Crash semantics in this reproduction are drawn at the media boundary:
//! what a medium has synced survives; everything above it — buffer pools,
//! lock tables, the WPL table — is volatile and vanishes when a simulated
//! crash drops the server struct. This is exactly the paper's model of raw
//! disk partitions under a STEAL/NO-FORCE buffer manager. A write is
//! volatile until the medium syncs it: [`stable::MemDisk`] happens to keep
//! every write at once, [`crash::CrashDisk`] keeps only what was synced.

pub mod crash;
pub mod page;
pub mod stable;
pub mod volume;

pub use crash::CrashDisk;
pub use page::{Page, MAX_OBJECT_SIZE, PAGE_HEADER_SIZE};
pub use stable::{MemDisk, StableMedia};
pub use volume::Volume;
