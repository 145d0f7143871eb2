//! The epoch chain: one incremental relabeling per fault boundary.

use crate::routing::EpochRouting;
use crate::schedule::FaultSchedule;
use desim::Time;
use netgraph::Topology;
use spam_core::{RoutingTables, SpamRouting};
use std::sync::Arc;
use updown::{RelabelReport, UpDownLabeling};

/// A fully precomputed live-reconfiguration scenario: the per-epoch
/// labelings and channel-liveness masks a storm produces over a base
/// topology.
///
/// Epoch 0 uses the caller's pristine labeling, shared rather than copied
/// when the caller hands over an `Arc`; epoch `e ≥ 1` is the
/// cumulative damage up to the `e`-th fault boundary, relabeled
/// incrementally from epoch `e - 1` ([`UpDownLabeling::relabel_after`]) so
/// the surviving spanning-tree structure — and therefore most channel
/// labels — carries over. In a real fabric this precomputation would be
/// the reconfiguration daemon; in the simulator it runs up front because
/// the storm is known, keeping the hot event loop free of labeling work.
#[derive(Debug, Clone)]
pub struct ReconfigScenario {
    boundaries: Vec<Time>,
    initial: Arc<UpDownLabeling>,
    /// Epoch `e ≥ 1`'s labeling is `relabeled[e - 1]`.
    relabeled: Vec<UpDownLabeling>,
    masks: Vec<Vec<bool>>,
    reports: Vec<RelabelReport>,
}

impl ReconfigScenario {
    /// Precomputes the epoch chain for `schedule` over `base`, starting
    /// from the pristine `initial` labeling: an `Arc` (or an owned
    /// labeling) is kept as epoch 0 as is, a borrowed one is copied.
    ///
    /// # Panics
    ///
    /// Panics if a boundary leaves no switch alive (the storm destroyed
    /// the whole fabric — no labeling can exist). Use [`Self::try_build`]
    /// when the storm is untrusted.
    pub fn build(
        base: &Topology,
        initial: impl Into<Arc<UpDownLabeling>>,
        schedule: &FaultSchedule,
    ) -> Self {
        // The panic is this constructor's documented contract; fallible
        // callers use `try_build`.
        #[allow(clippy::expect_used)]
        Self::try_build(base, initial, schedule).expect("a switch survives the storm")
    }

    /// Like [`Self::build`], but returns `None` when a fault boundary
    /// destroys the whole fabric (no switch alive, so no labeling
    /// exists). Found by fuzzing: an `IidSwitches` storm at rate 1.0
    /// validates but kills every switch at its first burst.
    pub fn try_build(
        base: &Topology,
        initial: impl Into<Arc<UpDownLabeling>>,
        schedule: &FaultSchedule,
    ) -> Option<Self> {
        let initial = initial.into();
        assert_eq!(
            initial.num_nodes(),
            base.num_nodes(),
            "initial labeling must cover the base topology"
        );
        let boundaries = schedule.fault_times();
        let mut relabeled: Vec<UpDownLabeling> = Vec::with_capacity(boundaries.len());
        let mut masks = vec![vec![true; base.num_channels()]];
        let mut reports = Vec::with_capacity(boundaries.len());
        for &t in &boundaries {
            let view = schedule.view_at(base, t);
            let prev = relabeled.last().unwrap_or(&initial);
            let (next, report) = prev.relabel_after(&view)?;
            masks.push(view.alive_channel_mask());
            relabeled.push(next);
            reports.push(report);
        }
        Some(ReconfigScenario {
            boundaries,
            initial,
            relabeled,
            masks,
            reports,
        })
    }

    /// Number of routing epochs (fault boundaries plus one).
    pub fn num_epochs(&self) -> usize {
        1 + self.relabeled.len()
    }

    /// The epoch boundaries (sorted fault instants).
    pub fn boundaries(&self) -> &[Time] {
        &self.boundaries
    }

    /// The epoch a message generated at `t` routes in: generation at or
    /// after a boundary uses the post-fault labeling.
    pub fn epoch_of(&self, t: Time) -> usize {
        self.boundaries.partition_point(|&b| b <= t)
    }

    /// Epoch `e`'s labeling.
    pub fn labeling(&self, e: usize) -> &UpDownLabeling {
        match e {
            0 => &self.initial,
            _ => &self.relabeled[e - 1],
        }
    }

    /// Every epoch's labeling, epoch 0 first.
    fn labelings(&self) -> impl Iterator<Item = &UpDownLabeling> {
        std::iter::once(&*self.initial).chain(&self.relabeled)
    }

    /// Epoch `e`'s channel-liveness mask over base channel ids.
    pub fn mask(&self, e: usize) -> &[bool] {
        &self.masks[e]
    }

    /// One [`RelabelReport`] per boundary (`reports()[i]` describes the
    /// transition into epoch `i + 1`).
    pub fn reports(&self) -> &[RelabelReport] {
        &self.reports
    }

    /// Builds the epoch-switching router for this scenario: messages are
    /// routed by the [`SpamRouting`] of their generation epoch, masked to
    /// that epoch's surviving channels.
    pub fn routing<'a>(&'a self, base: &'a Topology) -> EpochRouting<'a> {
        self.routing_with_tables(base, &self.build_epoch_tables(base))
    }

    /// Every epoch's masked routing tables, detached behind `Arc`s so an
    /// artifact cache can keep them across runs and re-attach them with
    /// [`Self::routing_with_tables`]. Cheap — per epoch the alive channels'
    /// move records; an epoch's distance rows are built as its own
    /// messages first aim at them, and stay with the tables.
    pub fn build_epoch_tables(&self, base: &Topology) -> Vec<Arc<RoutingTables>> {
        self.labelings()
            .zip(&self.masks)
            .map(|(ud, mask)| Arc::new(RoutingTables::build_masked(base, ud, Some(mask))))
            .collect()
    }

    /// Like [`Self::routing`], but re-attaching tables previously taken
    /// from [`Self::build_epoch_tables`] for this scenario over `base` —
    /// identical routing behavior, sharing every distance row earlier
    /// runs over those tables built.
    ///
    /// # Panics
    ///
    /// Panics when `tables` does not hold exactly one entry per epoch
    /// (it came from a different scenario).
    pub fn routing_with_tables<'a>(
        &'a self,
        base: &'a Topology,
        tables: &[Arc<RoutingTables>],
    ) -> EpochRouting<'a> {
        assert_eq!(
            tables.len(),
            self.num_epochs(),
            "one table set per routing epoch"
        );
        let epochs = self
            .labelings()
            .zip(tables)
            .map(|(ud, t)| SpamRouting::with_tables(base, ud, Arc::clone(t)))
            .collect();
        EpochRouting::new(self.boundaries.clone(), epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultEvent, FaultKind};
    use netgraph::gen::lattice::IrregularConfig;
    use spam_faults::FaultModel;
    use updown::RootSelection;

    #[test]
    fn epoch_chain_tracks_cumulative_damage() {
        let base = IrregularConfig::with_switches(48).generate(4);
        let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
        let storm = FaultSchedule::storm(
            &FaultModel::IidLinks { rate: 0.2 },
            &base,
            None,
            (Time::from_us(10), Time::from_us(40)),
            3,
            77,
        );
        let sc = ReconfigScenario::build(&base, &ud, &storm);
        assert_eq!(sc.num_epochs(), storm.fault_times().len() + 1);
        assert_eq!(sc.reports().len(), sc.num_epochs() - 1);
        // Masks only ever lose channels.
        for e in 1..sc.num_epochs() {
            let dead_prev = sc.mask(e - 1).iter().filter(|a| !**a).count();
            let dead_now = sc.mask(e).iter().filter(|a| !**a).count();
            assert!(dead_now > dead_prev, "each boundary kills something");
            // Labeled sets shrink (or stay) as the network fragments.
            assert!(sc.labeling(e).num_labeled() <= sc.labeling(e - 1).num_labeled());
        }
        // Epoch lookup: before, between, and after boundaries.
        assert_eq!(sc.epoch_of(Time::ZERO), 0);
        assert_eq!(sc.epoch_of(sc.boundaries()[0]), 1);
        assert_eq!(sc.epoch_of(Time::MAX), sc.num_epochs() - 1);
    }

    #[test]
    fn scenario_reuses_surviving_tree_structure() {
        let base = IrregularConfig::with_switches(64).generate(9);
        let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
        // One cross-ish link at a time: most of the tree must survive each
        // relabel.
        let c = base
            .channel_ids()
            .find(|&c| {
                let ch = base.channel(c);
                base.is_switch(ch.src)
                    && base.is_switch(ch.dst)
                    && ud.parent(ch.dst) != Some(ch.src)
                    && ud.parent(ch.src) != Some(ch.dst)
            })
            .expect("a cross link exists");
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: Time::from_us(20),
            kind: FaultKind::LinkDown(c),
        }]);
        let sc = ReconfigScenario::build(&base, &ud, &sched);
        let rep = &sc.reports()[0];
        assert!(!rep.full_rebuild);
        assert_eq!(rep.reattached_nodes, 0, "a cross link is not in the tree");
        assert_eq!(rep.kept_tree_edges, base.num_nodes() - 1);
        assert_eq!(rep.changed_channels, 0);
    }
}
