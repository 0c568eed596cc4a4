#![warn(missing_docs)]

//! RaCCD — Runtime-assisted Cache Coherence Deactivation (§III).
//!
//! This crate is the paper's primary contribution, tying the task runtime
//! (`raccd-runtime`) to the simulated machine (`raccd-sim`):
//!
//! * [`ncrt`] — the Non-Coherent Region Table (Figure 4) and the
//!   `raccd_register` iterative virtual→physical translation with region
//!   collapsing (Figure 5).
//! * [`pt`] — the Page-Table baseline classifier of Cuesta et al.\[ISCA'11\]: a
//!   private/shared bit per page, first-touch private, irreversible
//!   private→shared transitions with cache+TLB flushes (§II-B).
//! * [`mode`] — the three evaluated systems: FullCoh, PT, RaCCD (§V-A).
//! * [`census`] — the non-coherent block census behind Figure 2.
//! * [`driver`] — the simulation loop: scheduling, `raccd_register`, task
//!   execution (functional-at-dispatch, timed replay under interleaving),
//!   `raccd_invalidate`, wake-up (Figure 3).
//! * [`experiment`] — the top-level [`Experiment`] API and [`RunResult`].

pub mod census;
pub mod driver;
pub mod experiment;
pub mod mode;
pub mod ncrt;
pub mod pt;
pub mod resilience;
pub mod tlbclass;

pub use census::{Census, CensusSummary};
pub use driver::{Driver, DriverOutput, RollbackPolicy, SupervisedEnd};
pub use experiment::{Experiment, RunResult};
pub use mode::CoherenceMode;
pub use ncrt::Ncrt;
pub use pt::{PageClassifier, PtDecision};
pub use raccd_obs::Recorder;
pub use resilience::{DegradeController, DetectReason, FaultReport};
pub use tlbclass::TlbClassifier;
