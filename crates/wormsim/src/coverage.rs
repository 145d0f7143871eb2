//! Engine-novelty signals: a compact record of *which rare mechanisms a
//! run exercised*, independent of how often.
//!
//! The golden corpus pins what the hand-authored scenarios already reach;
//! the fuzzer (`spam-fuzz`) needs a cheap, deterministic answer to "did
//! this mutant visit an engine state no earlier run did?". [`CoverageSet`]
//! is that answer: a bitset of one-shot mechanism flags (first
//! teardown-during-branch-replication, first OCRQ contention, each
//! error variant) plus four watermark counters (max branch fanout, max
//! OCRQ depth, epoch count, most reattached nodes) whose *exceedance* is
//! also novelty.
//!
//! Every signal is computed from engine-visible state only — never from
//! event-queue internals — so the same run produces the same
//! `CoverageSet` under both [`desim::QueueKind`] arrangements (the
//! corpus suite pins [`crate::Counters`] equality across queues, and the
//! coverage rides inside `Counters`).

use crate::outcome::SimError;
use crate::routing::RouteError;

/// One named coverage bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageBit {
    /// The bit mask (exactly one bit set).
    pub mask: u64,
    /// Stable snake_case name (CSV column / report key).
    pub name: &'static str,
}

macro_rules! coverage_bits {
    ($($(#[$doc:meta])* $const_name:ident = $bit:expr, $name:literal;)*) => {
        impl CoverageSet {
            $( $(#[$doc])* pub const $const_name: u64 = 1 << $bit; )*
        }
        /// Every defined coverage bit, in bit order, with its stable name.
        pub const COVERAGE_BITS: &[CoverageBit] = &[
            $( CoverageBit { mask: 1 << $bit, name: $name }, )*
        ];
    };
}

coverage_bits! {
    /// A worm with two or more output channels (a branch replication
    /// unit) was torn down mid-flight by a fault.
    TEARDOWN_DURING_BRANCH = 0, "teardown_during_branch";
    /// A message's own injection link was already dead at source-ready.
    SOURCE_INJECTION_DEAD = 1, "source_injection_dead";
    /// A message was rejected at its source as unreachable (destination
    /// or source outside the routable component).
    UNREACHABLE_AT_SOURCE = 2, "unreachable_at_source";
    /// A live-mode routing dead end: an in-flight worm's routing failed
    /// mid-walk and it was torn down rather than aborting the run.
    ROUTE_DEADEND_LIVE = 3, "route_deadend_live";
    /// A routing decision requested a channel that died after the worm's
    /// labeling was built.
    DECISION_HIT_DEAD_CHANNEL = 4, "decision_hit_dead_channel";
    /// At least one bubble flit was created (asynchronous replication).
    BUBBLES = 5, "bubbles";
    /// The run was declared deadlocked by the progress watchdog.
    DEADLOCK_WATCHDOG = 6, "deadlock_watchdog";
    /// The run was declared deadlocked by event-queue exhaustion.
    DEADLOCK_QUEUE_EXHAUSTED = 7, "deadlock_queue_exhausted";
    /// The run passed through three or more routing epochs (two or more
    /// distinct fault instants).
    MULTI_EPOCH = 8, "multi_epoch";
    /// A relabel after a fault reattached at least one node while keeping
    /// the old tree (incremental patch, not a rebuild). Scenario-level:
    /// merged by `spam-scenario` after the run.
    RELABEL_REATTACH = 9, "relabel_reattach";
    /// A relabel rebuilt the spanning tree from scratch (the root died).
    /// Scenario-level: merged by `spam-scenario` after the run.
    RELABEL_FULL_REBUILD = 10, "relabel_full_rebuild";
    /// Two or more worms queued on one output channel's OCRQ at once.
    OCRQ_CONTENTION = 11, "ocrq_contention";
    /// A worm acquired two or more output channels at one router (branch
    /// replication engaged).
    BRANCHING_WORM = 12, "branching_worm";
    /// [`SimError::Route`] was recorded (aborting or per-message).
    ERR_ROUTE = 13, "err_route";
    /// [`SimError::Misroute`] was recorded.
    ERR_MISROUTE = 14, "err_misroute";
    /// [`SimError::EmptyDecision`] was recorded.
    ERR_EMPTY_DECISION = 15, "err_empty_decision";
    /// [`SimError::ForeignChannel`] was recorded.
    ERR_FOREIGN_CHANNEL = 16, "err_foreign_channel";
    /// [`SimError::DuplicateRequest`] was recorded.
    ERR_DUPLICATE_REQUEST = 17, "err_duplicate_request";
    /// [`SimError::TornDown`] was recorded.
    ERR_TORN_DOWN = 18, "err_torn_down";
    /// [`RouteError::NoLegalMove`] was seen.
    ROUTE_NO_LEGAL_MOVE = 19, "route_no_legal_move";
    /// [`RouteError::NoDestinationSubtree`] was seen.
    ROUTE_NO_DEST_SUBTREE = 20, "route_no_dest_subtree";
    /// [`RouteError::NoPlan`] was seen.
    ROUTE_NO_PLAN = 21, "route_no_plan";
    /// [`RouteError::NoSuchLink`] was seen.
    ROUTE_NO_SUCH_LINK = 22, "route_no_such_link";
    /// [`RouteError::UnreachableDestination`] was seen.
    ROUTE_UNREACHABLE_DEST = 23, "route_unreachable_dest";
    /// [`RouteError::SourceDisconnected`] was seen.
    ROUTE_SOURCE_DISCONNECTED = 24, "route_source_disconnected";
    /// [`SimError::HookSpec`] was recorded — a completion hook submitted
    /// an invalid follow-up message.
    ERR_HOOK_SPEC = 25, "err_hook_spec";
}

/// One named watermark extracted from a [`CoverageSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// Stable snake_case name.
    pub name: &'static str,
    /// The value.
    pub value: u64,
}

/// Compact novelty record of one run: mechanism bits + watermarks. Rides
/// inside [`crate::Counters`], so it is pinned byte-identical across
/// event-queue implementations by the golden corpus suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageSet {
    /// One-shot mechanism flags; see the `COVERAGE_BITS` table.
    pub bits: u64,
    /// Largest output fanout any worm acquired at one router.
    pub max_branch_fanout: u32,
    /// Deepest OCRQ (waiters on one output channel) observed.
    pub max_ocrq_depth: u32,
    /// Routing epochs the run passed through (fault boundaries + 1).
    pub epochs: u32,
    /// Most nodes any single relabel reattached (scenario-level; merged
    /// by `spam-scenario` after the run).
    pub max_reattached_nodes: u32,
}

impl CoverageSet {
    /// Sets one or more bits.
    #[inline]
    pub fn set(&mut self, mask: u64) {
        self.bits |= mask;
    }

    /// True when every bit of `mask` is set.
    #[inline]
    pub fn has(&self, mask: u64) -> bool {
        self.bits & mask == mask
    }

    /// Number of distinct bits set.
    pub fn bits_lit(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Records an output-fanout observation (watermark + branch bit).
    #[inline]
    pub fn note_fanout(&mut self, fanout: u32) {
        if fanout >= 2 {
            self.set(Self::BRANCHING_WORM);
        }
        self.max_branch_fanout = self.max_branch_fanout.max(fanout);
    }

    /// Records an OCRQ-depth observation (watermark + contention bit).
    #[inline]
    pub fn note_ocrq_depth(&mut self, depth: u32) {
        if depth >= 2 {
            self.set(Self::OCRQ_CONTENTION);
        }
        self.max_ocrq_depth = self.max_ocrq_depth.max(depth);
    }

    /// Records a typed simulation error (aborting or per-message),
    /// including the routing-error variant when there is one.
    pub fn note_sim_error(&mut self, e: &SimError) {
        match e {
            SimError::Route { error, .. } => {
                self.set(Self::ERR_ROUTE);
                self.note_route_error(error);
            }
            SimError::Misroute { .. } => self.set(Self::ERR_MISROUTE),
            SimError::EmptyDecision { .. } => self.set(Self::ERR_EMPTY_DECISION),
            SimError::ForeignChannel { .. } => self.set(Self::ERR_FOREIGN_CHANNEL),
            SimError::DuplicateRequest { .. } => self.set(Self::ERR_DUPLICATE_REQUEST),
            SimError::TornDown { .. } => self.set(Self::ERR_TORN_DOWN),
            SimError::HookSpec { .. } => self.set(Self::ERR_HOOK_SPEC),
        }
    }

    /// Records which routing-error variant was seen.
    pub fn note_route_error(&mut self, e: &RouteError) {
        self.set(match e {
            RouteError::NoLegalMove { .. } => Self::ROUTE_NO_LEGAL_MOVE,
            RouteError::NoDestinationSubtree { .. } => Self::ROUTE_NO_DEST_SUBTREE,
            RouteError::NoPlan { .. } => Self::ROUTE_NO_PLAN,
            RouteError::NoSuchLink { .. } => Self::ROUTE_NO_SUCH_LINK,
            RouteError::UnreachableDestination { .. } => Self::ROUTE_UNREACHABLE_DEST,
            RouteError::SourceDisconnected { .. } => Self::ROUTE_SOURCE_DISCONNECTED,
        });
    }

    /// The watermarks by stable name, in a fixed order.
    pub fn watermarks(&self) -> [Watermark; 4] {
        [
            Watermark {
                name: "max_branch_fanout",
                value: self.max_branch_fanout as u64,
            },
            Watermark {
                name: "max_ocrq_depth",
                value: self.max_ocrq_depth as u64,
            },
            Watermark {
                name: "epochs",
                value: self.epochs as u64,
            },
            Watermark {
                name: "max_reattached_nodes",
                value: self.max_reattached_nodes as u64,
            },
        ]
    }

    /// Folds another run's coverage into this accumulator: union of bits,
    /// max of watermarks.
    pub fn absorb(&mut self, other: &CoverageSet) {
        self.bits |= other.bits;
        self.max_branch_fanout = self.max_branch_fanout.max(other.max_branch_fanout);
        self.max_ocrq_depth = self.max_ocrq_depth.max(other.max_ocrq_depth);
        self.epochs = self.epochs.max(other.epochs);
        self.max_reattached_nodes = self.max_reattached_nodes.max(other.max_reattached_nodes);
    }

    /// The signals this run shows that `seen` does not: newly lit bits
    /// plus watermarks it strictly exceeds. Empty = not novel. Names are
    /// stable (`COVERAGE_BITS` names; watermark names suffixed with the
    /// new value, e.g. `epochs>4`).
    pub fn novel_signals(&self, seen: &CoverageSet) -> Vec<String> {
        let mut out = Vec::new();
        let fresh = self.bits & !seen.bits;
        for b in COVERAGE_BITS {
            if fresh & b.mask != 0 {
                out.push(b.name.to_string());
            }
        }
        for (mine, theirs) in self.watermarks().iter().zip(seen.watermarks()) {
            if mine.value > theirs.value {
                out.push(format!("{}>{}", mine.name, mine.value));
            }
        }
        out
    }

    /// True when [`Self::novel_signals`] would be non-empty, without
    /// allocating.
    pub fn is_novel_against(&self, seen: &CoverageSet) -> bool {
        if self.bits & !seen.bits != 0 {
            return true;
        }
        self.watermarks()
            .iter()
            .zip(seen.watermarks())
            .any(|(m, t)| m.value > t.value)
    }
}

crate::codec::snap_struct! { CoverageSet {
    bits, max_branch_fanout, max_ocrq_depth, epochs, max_reattached_nodes,
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::MsgId;
    use netgraph::{ChannelId, NodeId};

    #[test]
    fn bit_table_matches_constants() {
        assert_eq!(COVERAGE_BITS.len(), 26);
        // Names are unique and each mask has exactly one bit.
        let mut union = 0u64;
        for b in COVERAGE_BITS {
            assert_eq!(b.mask.count_ones(), 1, "{}", b.name);
            assert_eq!(union & b.mask, 0, "{} overlaps", b.name);
            union |= b.mask;
        }
        assert_eq!(union.count_ones() as usize, COVERAGE_BITS.len());
        assert_eq!(CoverageSet::TEARDOWN_DURING_BRANCH, COVERAGE_BITS[0].mask);
        assert_eq!(
            CoverageSet::ERR_HOOK_SPEC,
            COVERAGE_BITS[COVERAGE_BITS.len() - 1].mask
        );
    }

    #[test]
    fn watermarks_and_bits_feed_novelty() {
        let mut seen = CoverageSet::default();
        let mut run = CoverageSet::default();
        run.note_fanout(3);
        run.note_ocrq_depth(1);
        assert!(run.has(CoverageSet::BRANCHING_WORM));
        assert!(!run.has(CoverageSet::OCRQ_CONTENTION));
        assert!(run.is_novel_against(&seen));
        let signals = run.novel_signals(&seen);
        assert!(signals.contains(&"branching_worm".to_string()));
        assert!(signals.contains(&"max_branch_fanout>3".to_string()));
        seen.absorb(&run);
        assert!(!run.is_novel_against(&seen));
        assert!(run.novel_signals(&seen).is_empty());
        // Exceeding an absorbed watermark is novel again.
        let mut deeper = run;
        deeper.note_fanout(4);
        assert!(deeper.is_novel_against(&seen));
        assert_eq!(deeper.novel_signals(&seen), vec!["max_branch_fanout>4"]);
    }

    #[test]
    fn error_variants_map_to_distinct_bits() {
        let mut c = CoverageSet::default();
        c.note_sim_error(&SimError::Route {
            msg: MsgId(0),
            node: NodeId(1),
            error: RouteError::NoLegalMove {
                node: NodeId(1),
                target: NodeId(2),
            },
        });
        assert!(c.has(CoverageSet::ERR_ROUTE | CoverageSet::ROUTE_NO_LEGAL_MOVE));
        c.note_sim_error(&SimError::TornDown {
            msg: MsgId(0),
            channel: ChannelId(3),
        });
        assert!(c.has(CoverageSet::ERR_TORN_DOWN));
        assert_eq!(c.bits_lit(), 3);
    }
}
