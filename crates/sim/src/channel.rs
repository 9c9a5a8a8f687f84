//! Inter-core scalar channels: the queues a `send` feeds and a `recv`
//! drains, each message visible to its receiver once the configured
//! communication latency has passed.

use std::collections::VecDeque;

use spice_ir::interp::ChannelTable;

/// A message travelling between cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Message {
    ready_at: u64,
    value: i64,
}

/// The set of inter-core scalar channels, kept in a dense table indexed by
/// the small integer channel ids the transformation allocates (no hashing on
/// the send/receive path).
#[derive(Debug, Clone, Default)]
pub struct ChannelNet {
    queues: ChannelTable<Message>,
}

impl ChannelNet {
    /// Enqueues `value` on `chan`, visible to receivers at `ready_at`.
    pub fn send(&mut self, chan: i64, value: i64, ready_at: u64) {
        self.queues
            .queue_mut(chan)
            .push_back(Message { ready_at, value });
    }

    /// Dequeues the oldest message on `chan` if it has arrived by `now`.
    pub fn try_recv(&mut self, chan: i64, now: u64) -> Option<i64> {
        let q = self.queues.existing_mut(chan)?;
        match q.front() {
            Some(m) if m.ready_at <= now => q.pop_front().map(|m| m.value),
            _ => None,
        }
    }

    /// Arrival time of the oldest message queued on `chan`, if any — the
    /// wake-up event for a core blocked receiving on it. (Send times are
    /// monotone, so the queue front is the earliest arrival.)
    #[must_use]
    pub fn earliest_on(&self, chan: i64) -> Option<u64> {
        self.queues.queue(chan)?.front().map(|m| m.ready_at)
    }

    /// Total messages currently queued (arrived or still in flight). A walk
    /// over every queue: the event loop asks only once nothing is scheduled.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queues.queues().map(VecDeque::len).sum()
    }

    /// Empties every queue while keeping their allocations for the next
    /// invocation.
    pub fn clear(&mut self) {
        self.queues.clear_queues();
    }
}
