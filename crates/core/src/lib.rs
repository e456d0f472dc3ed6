//! # Ghostwriter
//!
//! A from-scratch reproduction of *"Ghostwriter: A Cache Coherence
//! Protocol for Error-Tolerant Applications"* (Kao, San Miguel, Enright
//! Jerger — ICPP Workshops 2021).
//!
//! Ghostwriter extends a MESI directory protocol with two *approximate*
//! coherence states and an approximate store instruction (`scribble`):
//!
//! * **GS** — a scribble to a Shared block whose new value is within the
//!   programmer-chosen bit-wise `d`-distance of the value it overwrites
//!   updates the block *locally*, without an UPGRADE/invalidation round.
//! * **GI** — a scribble to an Invalid-but-present block within
//!   `d`-distance of the stale contents updates it locally without a GETX;
//!   a periodic per-controller timeout returns GI blocks to Invalid.
//!
//! Both states trade bounded value divergence in *annotated, error-
//! tolerant* data for large reductions in coherence misses and traffic
//! when false sharing is present.
//!
//! This crate contains the complete simulated CMP of the paper's Table 1:
//! a deterministic event-driven machine with in-order cores, private L1s
//! running MESI or Ghostwriter, an inclusive distributed shared L2 with
//! directory slices, a mesh NoC, corner memory controllers, DRAM, and a
//! CACTI/DSENT-class energy model.
//!
//! ## Quick start
//!
//! ```
//! use ghostwriter_core::{Machine, MachineConfig, Protocol};
//!
//! let mut m = Machine::new(MachineConfig::small(2, Protocol::ghostwriter()));
//! let shared = m.alloc_padded(64);
//! for t in 0..2usize {
//!     m.add_thread(move |ctx| async move {
//!         ctx.approx_begin(4).await; // #pragma approx_dist(4) + approx_begin
//!         for i in 0..100u32 {
//!             let slot = shared.add(4 * t as u64);
//!             let v = ctx.load_u32(slot).await;
//!             ctx.scribble_u32(slot, v + (i & 1)).await; // approximate store
//!         }
//!         ctx.approx_end().await;
//!     });
//! }
//! let run = m.run();
//! println!(
//!     "cycles={} GS-serviced={} traffic={}",
//!     run.report.cycles,
//!     run.report.stats.serviced_by_gs,
//!     run.report.stats.traffic.total()
//! );
//! ```

pub mod config;
pub mod ctx;
pub mod dir;
pub mod fault;
pub mod harness;
pub mod json;
pub mod l1;
pub mod layout;
pub mod machine;
pub mod msg;
pub mod op;
pub mod prof;
pub mod proto;
pub mod scribe;
pub mod stats;
pub mod stats_io;
pub mod tester;

pub use config::{BaseProtocol, ConfigError, GiStorePolicy, MachineConfig, Protocol};
pub use ctx::ThreadCtx;
pub use fault::{FaultConfig, RecoveryParams};
pub use harness::{node_key, Op, System, SystemConfig, Violation};
pub use json::{Json, JsonError};
pub use machine::{FinishedRun, Machine, Program, SimAbort, ThreadBody};
pub use prof::{Phase, PhaseCounters, Profile, ALL_PHASES};
pub use proto::{Coverage, DirRowId, Homing, L1RowId, ProtocolError, Reach};
pub use scribe::{bit_distance, ScribePolicy, SimilarityHistogram};
pub use stats::{speedup_percent, SimReport, Stats};

pub use ghostwriter_mem::{Addr, BlockAddr};
