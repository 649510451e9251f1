//! Event catalogs, microarchitectural invariants, and derived events.
//!
//! This crate is the "domain knowledge" substrate of BayesPerf (ASPLOS'21):
//! it models what CPU vendor manuals provide — the list of countable
//! architectural/microarchitectural events per processor, the constraints on
//! which hardware counters may count them, and the *algebraic relationships*
//! between events (e.g. "DRAM bandwidth = (LLC misses × cache-line size +
//! DMA transactions × transaction size) / clocks"). BayesPerf encodes those
//! relationships as factors of a probabilistic graphical model and uses them
//! to correct multiplexing-induced measurement errors.
//!
//! Two processor models are provided, mirroring the paper's testbeds:
//!
//! * [`Arch::X86SkyLake`] — an Intel Sky Lake-like x86_64 core,
//! * [`Arch::Ppc64Power9`] — an IBM Power9-like ppc64 core.
//!
//! Both expose the same set of [`Semantic`] event roles (ppc64 lacks
//! reference cycles), so higher layers can be written architecture-neutrally
//! and instantiated per catalog.
//!
//! # Example
//!
//! ```
//! use bayesperf_events::{Arch, Catalog, Semantic};
//!
//! let cat = Catalog::new(Arch::X86SkyLake);
//! let cycles = cat.id(Semantic::Cycles).unwrap();
//! assert_eq!(cat.event(cycles).name, "CPU_CLK_UNHALTED.THREAD");
//! // Every exact invariant holds on synthesized ground truth:
//! let truth = bayesperf_events::synthesize(&cat, &bayesperf_events::FreeParams::default());
//! for inv in cat.invariants().iter().filter(|i| i.is_exact()) {
//!     assert!(inv.relative_residual(&truth).abs() < 1e-6, "{}", inv.name);
//! }
//! ```

mod arch;
mod assign;
mod catalog;
mod derived;
mod event;
mod expr;
mod id;
mod invariant;
mod source;
mod synth;

pub use arch::{Arch, ArchParams, PmuSpec};
pub use assign::{try_assign, Assignment, AssignmentError};
pub use catalog::Catalog;
pub use derived::DerivedEvent;
pub use event::{Domain, EventDesc, Semantic};
pub use expr::{EventEnv, Expr, Postfix};
pub use id::{CounterId, EventId};
pub use invariant::Invariant;
pub use source::{SourceDesc, SourceId, SourceKind, SourceNoise};
pub use synth::{synthesize, synthesize_into, FreeParams};
