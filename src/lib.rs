//! # ser-suite — EPP-based soft error rate estimation
//!
//! A reproduction of *"An Accurate SER Estimation Method Based on
//! Propagation Probability"* (Asadi & Tahoori, DATE 2005) as a family
//! of Rust crates, re-exported here under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `ser-netlist` | circuit IR, `.bench` parser, graph algorithms |
//! | [`sim`] | `ser-sim` | bit-parallel simulation, SEU injection, Monte-Carlo baseline |
//! | [`sp`] | `ser-sp` | signal-probability engines |
//! | [`epp`] | `ser-epp` | the paper's EPP computation and the SER model |
//! | [`gen`] | `ser-gen` | benchmark circuits and generators |
//! | [`service`] | `ser-service` | multi-circuit batch service: warm session LRU + one bounded scheduler |
//!
//! # Examples
//!
//! End-to-end: build a circuit, run both the analytical method and the
//! random-simulation baseline, compare:
//!
//! ```
//! use ser_suite::gen::c17;
//! use ser_suite::epp::CircuitSerAnalysis;
//! use ser_suite::sim::{BitSim, MonteCarlo};
//!
//! let c = c17();
//! let analytical = CircuitSerAnalysis::new().run(&c)?;
//!
//! let sim = BitSim::new(&c)?;
//! let mc = MonteCarlo::new(20_000).with_seed(1);
//! let g10 = c.find("G10").unwrap();
//! let baseline = mc.estimate_site(&sim, g10);
//!
//! let fast = analytical.site(g10).p_sensitized();
//! assert!((fast - baseline.p_sensitized).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same comparison through one compiled
//! [`AnalysisSession`](epp::AnalysisSession) — topological order,
//! observe points, signal probabilities and the simulator are computed
//! once and shared by every estimation path:
//!
//! ```
//! use ser_suite::gen::c17;
//! use ser_suite::epp::{AnalysisSession, CircuitSerAnalysis};
//! use ser_suite::sim::MonteCarlo;
//!
//! let c = c17();
//! let session = AnalysisSession::new(&c)?;
//! let analytical = CircuitSerAnalysis::new().run_with_session(&session);
//!
//! let g10 = c.find("G10").unwrap();
//! let mc = MonteCarlo::new(20_000).with_seed(1);
//! let baseline = session.monte_carlo_site(&mc, g10);
//!
//! let fast = analytical.site(g10).p_sensitized();
//! assert!((fast - baseline.p_sensitized).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ser_epp as epp;
pub use ser_gen as gen;
pub use ser_netlist as netlist;
pub use ser_service as service;
pub use ser_sim as sim;
pub use ser_sp as sp;
