//! Deterministic discrete-event simulation kernel for the Ghostwriter CMP
//! simulator.
//!
//! This crate provides the two pieces of machinery every component of the
//! simulated machine is built on:
//!
//! * [`EventQueue`] — a time-ordered event queue with deterministic FIFO
//!   ordering for events scheduled at the same cycle, so a simulation run is
//!   a pure function of its inputs.
//! * [`resume`] — the execution-driven workload engine. Each simulated
//!   thread is a [`FutureThread`], a resumable state machine the engine
//!   steps on its own thread: each simulated operation is one plain
//!   function call, with no OS threads, channels or context switches.
//!   Workloads are written as ordinary `async` bodies; workload
//!   computation costs wall-clock time but zero simulated time.
//!
//! The kernel knows nothing about caches or coherence; those live in
//! `ghostwriter-core`.

pub mod queue;
pub mod resume;

pub use queue::EventQueue;
pub use resume::{panic_message, CallFuture, FutureThread, OpCell, Step};

/// Simulated time, measured in core clock cycles (1 GHz in the paper's
/// configuration, so one cycle is one nanosecond).
pub type Cycle = u64;
