//! Lattice-shaped congestion heatmaps.
//!
//! The §4 networks place switches on an integer lattice
//! ([`LatticeLayout`] remembers which cell each switch occupies), so
//! per-channel congestion totals have a natural spatial rendering: fold
//! every channel's [`ChannelAccum`] into the lattice cell of the switch
//! that *transmits* on it (injection channels bill the switch their
//! processor attaches to), and the result localizes hot spots — a
//! hotspot workload lights the cells around the hot node, an incast
//! lights the sink's neighborhood, a storm smears heat along the
//! surviving up*/down* trunks.

use crate::channels::ChannelAccum;
use netgraph::gen::lattice::LatticeLayout;
use netgraph::Topology;

/// One lattice cell's folded congestion totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellHeat {
    /// Switch node id occupying this cell, if any.
    pub switch: Option<u32>,
    /// Channels folded into this cell.
    pub channels: u32,
    /// Summed per-channel totals.
    pub heat: ChannelAccum,
}

/// A `side x side` grid of [`CellHeat`]s. Cells without a switch stay
/// at their default (zero) heat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionHeatmap {
    /// Lattice side length.
    pub side: usize,
    /// Row-major cells, `side * side` of them.
    pub cells: Vec<CellHeat>,
}

/// Which accumulator field a rendering or ranking keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeatKey {
    /// Wire-busy nanoseconds.
    BusyNs,
    /// Acquisition count.
    Acquisitions,
    /// OCRQ depth integral (entry-nanoseconds).
    OcrqWaitNs,
    /// Failed-acquisition stall count.
    HeaderStalls,
}

impl HeatKey {
    /// Extracts the keyed field.
    pub fn of(self, a: &ChannelAccum) -> u64 {
        match self {
            HeatKey::BusyNs => a.busy_ns,
            HeatKey::Acquisitions => a.acquisitions,
            HeatKey::OcrqWaitNs => a.ocrq_wait_ns,
            HeatKey::HeaderStalls => a.header_stalls,
        }
    }

    /// The field's name in exports.
    pub fn name(self) -> &'static str {
        match self {
            HeatKey::BusyNs => "busy_ns",
            HeatKey::Acquisitions => "acquisitions",
            HeatKey::OcrqWaitNs => "ocrq_wait_ns",
            HeatKey::HeaderStalls => "header_stalls",
        }
    }
}

impl CongestionHeatmap {
    /// Folds per-channel totals onto the lattice. `accums` is indexed by
    /// `ChannelId` and must cover every channel of `topo`; each channel
    /// bills the switch transmitting on it (for processor-to-switch
    /// injection channels, the receiving switch).
    ///
    /// # Panics
    ///
    /// Panics if `accums` and the topology disagree on channel count.
    pub fn build(topo: &Topology, layout: &LatticeLayout, accums: &[ChannelAccum]) -> Self {
        assert_eq!(
            accums.len(),
            topo.num_channels(),
            "one accumulator per channel"
        );
        let mut cells = vec![CellHeat::default(); layout.side * layout.side];
        for (s, &cell) in layout.cell.iter().enumerate() {
            cells[cell].switch = Some(s as u32);
        }
        for c in topo.channel_ids() {
            let ch = topo.channel(c);
            let owner = if topo.is_switch(ch.src) {
                ch.src
            } else {
                // Injection channel: a processor transmits only to its
                // own switch.
                ch.dst
            };
            let cell = layout.cell[owner.index()];
            cells[cell].channels += 1;
            cells[cell].heat.fold(&accums[c.index()]);
        }
        CongestionHeatmap {
            side: layout.side,
            cells,
        }
    }

    /// Grand totals over every cell (equivalently, every channel).
    pub fn totals(&self) -> ChannelAccum {
        let mut t = ChannelAccum::default();
        for c in &self.cells {
            t.fold(&c.heat);
        }
        t
    }

    /// Cells holding a switch, as `(row, col, switch, &CellHeat)`.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, usize, u32, &CellHeat)> {
        let side = self.side;
        let cells = self.cells.iter().enumerate();
        cells.filter_map(move |(i, c)| Some((i / side, i % side, c.switch?, c)))
    }

    /// The fraction of `key`'s grand total carried by the `k` hottest
    /// cells — the localization headline ("the top 4 cells carry 62 % of
    /// all OCRQ waiting"). Returns 0 when the grand total is zero.
    pub fn top_share(&self, k: usize, key: HeatKey) -> f64 {
        let total: u64 = self.cells.iter().map(|c| key.of(&c.heat)).sum();
        if total == 0 {
            return 0.0;
        }
        let mut vals: Vec<u64> = self.cells.iter().map(|c| key.of(&c.heat)).collect();
        vals.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = vals.iter().take(k).sum();
        top as f64 / total as f64
    }

    /// CSV of every occupied cell:
    /// `row,col,switch,channels,busy_ns,acquisitions,ocrq_wait_ns,header_stalls`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "row,col,switch,channels,busy_ns,acquisitions,ocrq_wait_ns,header_stalls\n",
        );
        for (row, col, switch, c) in self.occupied() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                row,
                col,
                switch,
                c.channels,
                c.heat.busy_ns,
                c.heat.acquisitions,
                c.heat.ocrq_wait_ns,
                c.heat.header_stalls
            ));
        }
        out
    }

    /// Terminal rendering: one character per cell, ramped by the keyed
    /// value relative to the grid maximum (`.` cold, `@` hottest, space
    /// for unoccupied cells).
    pub fn ascii(&self, key: HeatKey) -> String {
        const RAMP: [char; 9] = ['.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let max = self
            .cells
            .iter()
            .map(|c| key.of(&c.heat))
            .max()
            .unwrap_or(0);
        let mut out = format!("heat: {} (max {} per cell)\n", key.name(), max);
        for row in 0..self.side {
            for col in 0..self.side {
                let c = &self.cells[row * self.side + col];
                let ch = match c.switch {
                    None => ' ',
                    Some(_) if max == 0 => RAMP[0],
                    Some(_) => {
                        let v = key.of(&c.heat);
                        let idx = ((v as u128 * (RAMP.len() as u128 - 1)) / max as u128) as usize;
                        RAMP[idx]
                    }
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;

    fn sample() -> (Topology, LatticeLayout) {
        IrregularConfig::with_switches(16).generate_with_layout(7)
    }

    fn loaded(topo: &Topology) -> Vec<ChannelAccum> {
        topo.channel_ids()
            .map(|c| ChannelAccum {
                busy_ns: 10 * (c.index() as u64 + 1),
                acquisitions: 1,
                ocrq_wait_ns: c.index() as u64,
                header_stalls: 0,
            })
            .collect()
    }

    #[test]
    fn totals_conserve_channel_sums() {
        let (topo, layout) = sample();
        let accums = loaded(&topo);
        let map = CongestionHeatmap::build(&topo, &layout, &accums);
        let t = map.totals();
        assert_eq!(t.busy_ns, accums.iter().map(|a| a.busy_ns).sum::<u64>());
        assert_eq!(t.acquisitions, accums.len() as u64);
        assert_eq!(
            t.ocrq_wait_ns,
            accums.iter().map(|a| a.ocrq_wait_ns).sum::<u64>()
        );
        let folded_channels: u32 = map.cells.iter().map(|c| c.channels).sum();
        assert_eq!(folded_channels as usize, topo.num_channels());
    }

    #[test]
    fn every_switch_occupies_exactly_one_cell() {
        let (topo, layout) = sample();
        let accums = vec![ChannelAccum::default(); topo.num_channels()];
        let map = CongestionHeatmap::build(&topo, &layout, &accums);
        let occupied: Vec<u32> = map.cells.iter().filter_map(|c| c.switch).collect();
        assert_eq!(occupied.len(), topo.num_switches());
        let mut sorted = occupied.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), occupied.len());
    }

    #[test]
    fn top_share_ranks_hot_cells() {
        let (topo, layout) = sample();
        let mut accums = vec![ChannelAccum::default(); topo.num_channels()];
        // All heat on one channel: its cell carries 100 %.
        accums[0].ocrq_wait_ns = 999;
        let map = CongestionHeatmap::build(&topo, &layout, &accums);
        assert_eq!(map.top_share(1, HeatKey::OcrqWaitNs), 1.0);
        assert_eq!(map.top_share(1, HeatKey::HeaderStalls), 0.0, "zero total");
        // Uniform heat: k cells carry ~k/switches of the total.
        let uniform: Vec<ChannelAccum> = (0..topo.num_channels())
            .map(|_| ChannelAccum {
                acquisitions: 1,
                ..ChannelAccum::default()
            })
            .collect();
        let umap = CongestionHeatmap::build(&topo, &layout, &uniform);
        let share = umap.top_share(4, HeatKey::Acquisitions);
        assert!(share < 0.6, "uniform heat cannot concentrate: {share}");
    }

    #[test]
    fn exports_render_and_agree() {
        let (topo, layout) = sample();
        let accums = loaded(&topo);
        let map = CongestionHeatmap::build(&topo, &layout, &accums);
        let csv = map.to_csv();
        assert!(csv.starts_with("row,col,switch,"));
        assert_eq!(csv.lines().count(), 1 + topo.num_switches());
        let art = map.ascii(HeatKey::BusyNs);
        assert_eq!(art.lines().count(), 1 + map.side);
        assert!(art.contains('@'), "the max cell renders hottest");
    }

    #[test]
    #[should_panic(expected = "one accumulator per channel")]
    fn wrong_accum_length_panics() {
        let (topo, layout) = sample();
        CongestionHeatmap::build(&topo, &layout, &[]);
    }
}
