//! Message kinds and cost accounting.
//!
//! Every simulated remote interaction is charged here. Conventions (stated
//! once, used everywhere):
//!
//! * one *message* = one one-way network transmission (a request and its
//!   reply are two messages);
//! * a routing *hop* is one request/reply exchange with an intermediate node
//!   during a lookup (2 messages);
//! * payload bytes cover the variable-size parts (summaries, histograms);
//!   fixed headers are charged [`HEADER_BYTES`] per message.
//!
//! The kinds are declared once, as rows of the `message_kinds!` table, which
//! derives the enum, [`MessageKind::ALL`] and the counter array's length.
//! `tests/cost_accounting.rs` requires some library run to bill every kind
//! in [`MessageKind::ALL`], so a row that nothing bills fails `cargo test`.

/// Fixed per-message overhead charged on top of payloads, in bytes.
pub const HEADER_BYTES: usize = 48;

/// Declares [`MessageKind`] from one table: the enum with its docs and
/// derives, [`MessageKind::ALL`] in declaration order, and [`KIND_COUNT`].
/// A kind's declaration position is its discriminant, so `kind as usize`
/// indexes its counter in [`MessageStats`].
macro_rules! message_kinds {
    ($(#[$meta:meta])* pub enum MessageKind {$(
        $(#[$doc:meta])*
        $kind:ident,
    )*}) => {
        $(#[$meta])*
        pub enum MessageKind {$(
            $(#[$doc])*
            $kind,
        )*}

        /// Number of [`MessageKind`] variants (size of the dense counter array).
        const KIND_COUNT: usize = [$(MessageKind::$kind),*].len();

        impl MessageKind {
            /// Every kind, in declaration (= `Ord` = counter) order.
            pub const ALL: [MessageKind; KIND_COUNT] = [$(MessageKind::$kind),*];
        }
    };
}

// The kind table: one row per kind, in counter order. The fault kinds come
// last, from `FaultDrop` on, since `MessageStats::total_faults` sums that tail.
message_kinds! {
    /// The kinds of messages the overlay exchanges.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum MessageKind {
        /// A routing step of an iterative lookup (request or reply).
        LookupHop,
        /// A routing attempt that timed out on a dead node.
        LookupTimeout,
        /// A density-estimation probe request.
        Probe,
        /// A probe reply carrying `(arc, count, summary)`.
        ProbeReply,
        /// A probe reply piggybacked on a foreground lookup's final exchange:
        /// only the incremental payload is charged — the routing was already
        /// paid for by the lookup it rides on.
        ProbePiggyback,
        /// Stabilization traffic (successor/predecessor refresh, finger fix).
        Stabilize,
        /// Data handoff during join/leave.
        Handoff,
        /// One gossip exchange (Push-Sum).
        Gossip,
        /// A random-walk step.
        WalkStep,
        /// A remote tuple-sampling request/reply.
        TupleSample,
        /// Replica refresh traffic (primary pushing deltas to its successors).
        Replicate,
        /// An injected fault: a request transmission lost on a link.
        FaultDrop,
        /// An injected fault: a reply dropped after the request was processed.
        FaultReplyDrop,
        /// An injected fault: the contacted peer crashed mid-request.
        FaultCrash,
        /// An injected fault: a timeout on a transiently sick (not dead) peer.
        FaultSick,
        /// An injected fault: a low-capacity peer's reply missed the caller's
        /// deadline (the request was processed; the peer is alive).
        FaultSlow,
        /// An injected fault: the message could not cross an arc-partition cut.
        FaultPartition,
    }
}

/// Aggregate message/byte/hop counters for one simulation.
///
/// Counters are a fixed array indexed by [`MessageKind`] so the per-hop
/// `record` calls on the lookup path stay allocation-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    counts: [u64; KIND_COUNT],
    bytes: u64,
    /// Total routing hops across all lookups.
    hops: u64,
    /// Number of lookups performed.
    lookups: u64,
    /// Simulated-time delay units accrued (message delivery delays drawn
    /// from a fault plan, plus retry timeouts/backoff charged by callers).
    delay_units: u64,
}

impl MessageStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind` with `payload` bytes (header added).
    pub fn record(&mut self, kind: MessageKind, payload: usize) {
        self.counts[kind as usize] += 1;
        self.bytes += (HEADER_BYTES + payload) as u64;
    }

    /// Records the hop count of one completed lookup.
    pub fn record_lookup(&mut self, hops: u32) {
        self.lookups += 1;
        self.hops += u64::from(hops);
    }

    /// Accrues simulated-time delay units (delivery delays, retry waits).
    pub fn record_delay(&mut self, units: u64) {
        self.delay_units += units;
    }

    /// Total simulated-time delay units accrued.
    pub fn total_delay(&self) -> u64 {
        self.delay_units
    }

    /// Total injected-fault events tallied (all `Fault*` kinds, the table's
    /// tail from `FaultDrop` on).
    pub fn total_faults(&self) -> u64 {
        self.counts[MessageKind::FaultDrop as usize..].iter().sum()
    }

    /// Total messages of `kind`.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes (payloads + headers).
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean hops per lookup, or 0 if no lookups were recorded.
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hops as f64 / self.lookups as f64
        }
    }

    /// Number of lookups recorded.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Zeroes all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Difference `self - earlier`, for measuring the cost of one phase.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not a prefix of `self` (i.e.
    /// counters ran backwards).
    pub fn since(&self, earlier: &MessageStats) -> MessageStats {
        let mut counts = [0u64; KIND_COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            let (v, e) = (self.counts[i], earlier.counts[i]);
            debug_assert!(v >= e, "counter {:?} ran backwards", MessageKind::ALL[i]);
            *slot = v - e;
        }
        MessageStats {
            counts,
            bytes: self.bytes - earlier.bytes,
            hops: self.hops - earlier.hops,
            lookups: self.lookups - earlier.lookups,
            delay_units: self.delay_units - earlier.delay_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = MessageStats::new();
        s.record(MessageKind::Probe, 16);
        s.record(MessageKind::Probe, 16);
        s.record(MessageKind::ProbeReply, 256);
        assert_eq!(s.count(MessageKind::Probe), 2);
        assert_eq!(s.count(MessageKind::ProbeReply), 1);
        assert_eq!(s.count(MessageKind::Gossip), 0);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), (3 * HEADER_BYTES + 16 + 16 + 256) as u64);
    }

    #[test]
    fn lookup_hops_average() {
        let mut s = MessageStats::new();
        s.record_lookup(4);
        s.record_lookup(8);
        assert_eq!(s.mean_hops(), 6.0);
        assert_eq!(s.lookups(), 2);
        assert_eq!(MessageStats::new().mean_hops(), 0.0);
    }

    #[test]
    fn since_computes_deltas() {
        let mut s = MessageStats::new();
        s.record(MessageKind::Probe, 10);
        let snapshot = s.clone();
        s.record(MessageKind::Probe, 10);
        s.record(MessageKind::Gossip, 100);
        s.record_lookup(3);
        let d = s.since(&snapshot);
        assert_eq!(d.count(MessageKind::Probe), 1);
        assert_eq!(d.count(MessageKind::Gossip), 1);
        assert_eq!(d.lookups(), 1);
        assert_eq!(d.mean_hops(), 3.0);
    }

    #[test]
    fn delay_and_fault_accounting() {
        let mut s = MessageStats::new();
        s.record_delay(5);
        s.record(MessageKind::FaultDrop, 8);
        s.record(MessageKind::FaultSick, 8);
        s.record(MessageKind::FaultPartition, 8);
        // The kind just before the fault tail is no fault.
        s.record(MessageKind::Replicate, 8);
        let snapshot = s.clone();
        s.record_delay(7);
        s.record(MessageKind::FaultCrash, 8);
        assert_eq!(s.total_delay(), 12);
        assert_eq!(s.total_faults(), 4);
        let d = s.since(&snapshot);
        assert_eq!(d.total_delay(), 7);
        assert_eq!(d.total_faults(), 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = MessageStats::new();
        s.record(MessageKind::Handoff, 1000);
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
    }
}
