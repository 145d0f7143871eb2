//! Simulation configuration: the latency model and buffer geometry of §4.

use desim::{Duration, QueueKind};

/// The three latency constants of the paper's experiments (§4):
///
/// > "The communication startup latency was 10 microseconds, router setup
/// > latency for each message header was 40 nanoseconds, and channel
/// > propagation latency was 10 nanoseconds."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyParams {
    /// Software/injection cost paid once per worm at the source.
    pub startup: Duration,
    /// Routing-decision cost paid once per header per router.
    pub router_setup: Duration,
    /// Time for one flit to cross one channel; also the per-channel
    /// bandwidth (one flit per `channel_prop`).
    pub channel_prop: Duration,
}

impl LatencyParams {
    /// The paper's values: 10 µs / 40 ns / 10 ns.
    pub const fn paper() -> Self {
        LatencyParams {
            startup: Duration::from_us(10),
            router_setup: Duration::from_ns(40),
            channel_prop: Duration::from_ns(10),
        }
    }
}

impl Default for LatencyParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Latency model.
    pub latency: LatencyParams,
    /// Input buffer capacity per channel, in flits. The paper's headline
    /// result holds at 1; §5 proposes studying larger values (ablation B).
    pub input_buffer_flits: usize,
    /// Output buffer capacity per channel, in flits.
    pub output_buffer_flits: usize,
    /// Watchdog: if no *real* flit moves anywhere in the network for this
    /// long while messages are in flight, declare deadlock. Must exceed any
    /// legitimate network-wide stall; the default (1 ms, i.e. 100 startup
    /// latencies) is orders of magnitude above any legal stall in the
    /// paper-scale experiments.
    pub watchdog: Duration,
    /// Hard cap on processed events — a backstop against runaway
    /// simulations (e.g. unbounded bubble generation in a deadlocked run
    /// with a generous watchdog).
    pub max_events: u64,
    /// Additional header flits per worm beyond the first. The paper
    /// models a single header flit carrying the destination set; real
    /// tree-based routers may need several flits to encode many
    /// destination addresses. Extra header flits travel like data flits
    /// (the routing decision still costs one router setup per hop) but
    /// lengthen every worm, so large destination sets pay a small,
    /// size-dependent serialization cost.
    pub extra_header_flits: u32,
    /// Which future-event-list arrangement drives the run. Both kinds
    /// produce byte-identical outcomes (pinned by the golden-regression
    /// suite); [`QueueKind::Bucket`] (constant-delay lanes in front of
    /// the heap) is the fast default, [`QueueKind::Heap`] remains
    /// selectable as the reference implementation via
    /// [`Self::with_queue`]. `None` (the default) resolves to
    /// [`QueueKind::Bucket`].
    pub queue: Option<QueueKind>,
    /// Periodic checkpointing cadence in nanoseconds of simulation time
    /// (`None` = off). When set, the engine serializes its complete
    /// mid-run state once per period — a pure observer riding a
    /// [`desim::Ticker`] beside the event queue, so every simulated
    /// outcome is byte-identical with checkpointing on or off. Where the
    /// snapshots go is chosen with
    /// [`NetworkSim::enable_checkpoints`](crate::NetworkSim::enable_checkpoints)
    /// or [`NetworkSim::set_checkpoint_sink`](crate::NetworkSim::set_checkpoint_sink);
    /// with only this field set the cadence ticks (a snapshot carries it)
    /// but nothing is encoded.
    pub checkpoint_every_ns: Option<u64>,
}

impl SimConfig {
    /// The paper's configuration: paper latencies, single-flit buffers.
    pub const fn paper() -> Self {
        SimConfig {
            latency: LatencyParams::paper(),
            input_buffer_flits: 1,
            output_buffer_flits: 1,
            watchdog: Duration::from_us(1_000),
            max_events: u64::MAX,
            extra_header_flits: 0,
            queue: None,
            checkpoint_every_ns: None,
        }
    }

    /// Sets both buffer depths (ablation B in DESIGN.md).
    pub fn with_buffers(mut self, input: usize, output: usize) -> Self {
        assert!(input >= 1 && output >= 1, "buffers must hold >= 1 flit");
        self.input_buffer_flits = input;
        self.output_buffer_flits = output;
        self
    }

    /// Replaces the watchdog timeout.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the number of extra header flits (multi-flit address encoding).
    pub fn with_extra_header_flits(mut self, extra: u32) -> Self {
        self.extra_header_flits = extra;
        self
    }

    /// Selects the event-queue arrangement (lanes in front of the heap vs.
    /// the reference heap alone; identical outcomes, different wall-clock
    /// speed).
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = Some(queue);
        self
    }

    /// The queue kind this configuration resolves to: the explicit choice
    /// if one was made, otherwise [`QueueKind::Bucket`].
    pub fn resolved_queue(&self) -> QueueKind {
        self.queue.unwrap_or(QueueKind::Bucket)
    }

    /// Enables periodic engine checkpointing every `every_ns` nanoseconds
    /// of simulation time (see [`Self::checkpoint_every_ns`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero cadence — that ticker never advances.
    pub fn with_checkpoint_every_ns(mut self, every_ns: u64) -> Self {
        assert!(every_ns > 0, "checkpoint cadence must be non-zero");
        self.checkpoint_every_ns = Some(every_ns);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let l = LatencyParams::paper();
        assert_eq!(l.startup.as_ns(), 10_000);
        assert_eq!(l.router_setup.as_ns(), 40);
        assert_eq!(l.channel_prop.as_ns(), 10);
        let c = SimConfig::paper();
        assert_eq!(c.input_buffer_flits, 1);
        assert_eq!(c.output_buffer_flits, 1);
    }

    #[test]
    fn builder_setters() {
        let c = SimConfig::paper()
            .with_buffers(4, 2)
            .with_watchdog(Duration::from_us(77))
            .with_extra_header_flits(3);
        assert_eq!(c.input_buffer_flits, 4);
        assert_eq!(c.output_buffer_flits, 2);
        assert_eq!(c.watchdog.as_ns(), 77_000);
        assert_eq!(c.extra_header_flits, 3);
        assert_eq!(SimConfig::paper().extra_header_flits, 0);
    }

    #[test]
    #[should_panic(expected = "buffers must hold")]
    fn zero_buffers_rejected() {
        SimConfig::paper().with_buffers(0, 1);
    }

    #[test]
    fn checkpoint_cadence_builder() {
        assert_eq!(SimConfig::paper().checkpoint_every_ns, None);
        let c = SimConfig::paper().with_checkpoint_every_ns(50_000);
        assert_eq!(c.checkpoint_every_ns, Some(50_000));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_checkpoint_cadence_rejected() {
        SimConfig::paper().with_checkpoint_every_ns(0);
    }

    #[test]
    fn explicit_queue_choice_beats_default() {
        // paper() leaves the kind open (the lanes); with_queue pins it.
        assert_eq!(SimConfig::paper().queue, None);
        assert_eq!(SimConfig::paper().resolved_queue(), QueueKind::Bucket);
        let c = SimConfig::paper().with_queue(QueueKind::Heap);
        assert_eq!(c.queue, Some(QueueKind::Heap));
        assert_eq!(c.resolved_queue(), QueueKind::Heap);
    }
}
