#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-fuzz — coverage-guided scenario fuzzing
//!
//! Hand-authored scenarios only exercise the engine states their
//! authors thought of. This crate turns the scenario subsystem into a
//! feedback loop that finds the rest:
//!
//! * [`fuzz`] mutates corpus seeds with typed, axis-aware mutations
//!   ([`spam_scenario::mutate_spec`]) — every mutant either validates or
//!   trips a predicted [`spam_scenario::SpecError`] variant.
//! * The engine reports what each run *touched* via
//!   [`wormsim::CoverageSet`] (teardown-during-branch, watchdog deadlock,
//!   relabel reattach, OCRQ contention, …); the [`NoveltyTracker`]
//!   promotes mutants that light a bit or push a watermark the
//!   hand-authored corpus never did, and novel specs re-enter the seed
//!   pool so the search digs where it last paid off.
//! * Five oracles guard every run ([`oracle::check_spec`]): rep-0
//!   determinism (two runs, identical digests), Heap-vs-Bucket queue
//!   equivalence, total accounting, end-of-run quiescence, and
//!   checkpoint/resume equivalence.
//!   Violations are greedily minimized ([`minimize_violation`]) down an
//!   axis-deletion lattice while preserving the named oracle.
//!
//! The whole loop is deterministic and has no wall-clock cut: one
//! [`FuzzConfig`] reproduces the same mutants, promotions, and
//! regressions byte for byte, which is what lets CI run
//! `fuzz_specs --quick` and diff the committed coverage record.

pub mod digest;
pub mod fuzzer;
pub mod minimize;
pub mod novelty;
pub mod oracle;

pub use digest::outcome_digest;
pub use fuzzer::{fuzz, FuzzConfig, FuzzReport, FuzzStats, Promoted, Regression};
pub use minimize::minimize_violation;
pub use novelty::NoveltyTracker;
pub use oracle::{check_spec, OracleReport, ORACLE_NAMES};
