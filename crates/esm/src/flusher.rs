//! The background flusher: a thread that runs maintenance passes so that
//! no committing client does.
//!
//! Once [`crate::server::Server::start_flusher`] has been called, a commit
//! that finds the log past its high watermark only queues a wakeup here; the pass itself — a checkpoint, or WPL
//! reclaim — runs on this thread. The checkpoint it runs is the same one
//! an inline caller runs (`server/maint.rs`): its drain claims batches of
//! dirty pages shard by shard (pinning them under only that shard's lock),
//! copies them, releases the lock and writes the images to the data disk
//! in ascending page-id order through
//! [`crate::gate::VolumeGate::write_sorted`] — one elevator sweep per
//! batch. Foreground commits only ever contend for one shard lock for the
//! duration of a claim.
//!
//! Nothing starts the thread by default: the committed figures are
//! single-client runs whose maintenance rides on the committing client.

use crate::server::Server;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Wakeup messages for the flusher thread.
pub(crate) enum FlusherMsg {
    /// Run one maintenance pass (checkpoint or WPL reclaim).
    Maintain,
    /// Exit the loop (stop_flusher joins afterwards).
    Stop,
}

/// The running flusher thread, held by the server.
pub(crate) struct FlusherHandle {
    pub(crate) tx: Sender<FlusherMsg>,
    join: JoinHandle<()>,
}

impl FlusherHandle {
    /// Spawn the flusher loop. The thread holds only a `Weak` back-pointer
    /// so it can never keep a crashed server alive; if the server is gone
    /// (or the channel closed) the loop exits.
    pub(crate) fn spawn(server: &Arc<Server>) -> FlusherHandle {
        let weak: Weak<Server> = Arc::downgrade(server);
        let (tx, rx) = channel();
        let join = std::thread::Builder::new()
            .name("qs-flusher".into())
            .spawn(move || flusher_loop(weak, rx))
            .expect("spawn flusher thread");
        FlusherHandle { tx, join }
    }

    /// Ask the thread to exit and wait for it. Any maintenance pass still
    /// queued before the stop marker runs to completion first.
    pub(crate) fn stop(self) {
        let _ = self.tx.send(FlusherMsg::Stop);
        let _ = self.join.join();
    }
}

fn flusher_loop(server: Weak<Server>, rx: Receiver<FlusherMsg>) {
    while let Ok(FlusherMsg::Maintain) = rx.recv() {
        let Some(server) = server.upgrade() else { break };
        server.flusher_tick();
    }
}
