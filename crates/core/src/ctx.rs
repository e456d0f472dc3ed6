//! The workload-facing thread API.
//!
//! A [`ThreadCtx`] is handed to each workload body; every method is one
//! simulated instruction — awaiting it suspends the workload until the
//! engine has simulated the operation and resumes the core with the
//! result. Loads/stores go through the simulated memory hierarchy (and
//! therefore the coherence protocol); `scribble_*` are the paper's
//! approximate stores, which take effect only inside an
//! `approx_begin`/`approx_end` region; `work` charges pure compute cycles.
//!
//! Every method returns one flat [`OpFuture`]: the engine call
//! ([`ghostwriter_sim::CallFuture`], which borrows the context's op cell)
//! plus a plain `fn(u64) -> T` that turns the engine's raw reply into the
//! typed result. There is deliberately no `async fn` layer here: a
//! `load_f32` written as `async` nests its own generator around
//! `load_u32`'s around the raw access's around the call, and the resume
//! of a simulated L1 hit would descend through all four frames. Operands
//! are encoded eagerly, when the method is called; the operation is
//! issued on the first poll.
//!
//! Floats travel as raw bit patterns, so the scribe comparator sees exactly
//! the bits a hardware implementation would.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use ghostwriter_mem::Addr;
use ghostwriter_sim::{CallFuture, OpCell};

use crate::op::{OpKind, ThreadOp, ThreadReply};

/// Per-thread handle to the simulated machine. Owned by the workload
/// future; each method awaits one engine round trip.
pub struct ThreadCtx {
    cell: Rc<OpCell<ThreadOp, ThreadReply>>,
    tid: usize,
}

/// One simulated operation in flight: the engine call and the
/// conversion of its raw `u64` reply into the accessor's result type.
#[must_use = "a simulated operation does nothing unless awaited"]
pub struct OpFuture<'a, T> {
    call: CallFuture<'a, ThreadOp, ThreadReply>,
    map: fn(ThreadReply) -> T,
}

impl<T> Future for OpFuture<'_, T> {
    type Output = T;

    #[inline]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        // Both fields are `Unpin`, so the future is too.
        let this = self.get_mut();
        Pin::new(&mut this.call).poll(cx).map(this.map)
    }
}

macro_rules! accessors {
    ($load:ident, $store:ident, $scribble:ident, $ty:ty, $size:expr,
     to_bits: |$v:ident| $to_bits:expr, from_bits: |$r:ident| $from_bits:expr) => {
        /// Loads a value of this width.
        #[inline]
        pub fn $load(&self, addr: Addr) -> OpFuture<'_, $ty> {
            self.access(addr, $size, OpKind::Load, 0, |$r| $from_bits)
        }
        /// Conventional (always coherent) store.
        #[inline]
        pub fn $store(&self, addr: Addr, $v: $ty) -> OpFuture<'_, ()> {
            self.access(addr, $size, OpKind::Store, $to_bits, drop)
        }
        /// Approximate store: behaves per the Ghostwriter protocol inside
        /// an approximate region, degrades to a conventional store outside
        /// one (or under the MESI baseline).
        #[inline]
        pub fn $scribble(&self, addr: Addr, $v: $ty) -> OpFuture<'_, ()> {
            self.access(addr, $size, OpKind::Scribble, $to_bits, drop)
        }
    };
}

impl ThreadCtx {
    /// Wraps a resumable-core op cell (called by the machine, not by
    /// workloads).
    pub(crate) fn new(cell: Rc<OpCell<ThreadOp, ThreadReply>>, tid: usize) -> Self {
        Self { cell, tid }
    }

    /// This thread's id (== the core it runs on).
    pub fn tid(&self) -> usize {
        self.tid
    }

    #[inline]
    fn op<T>(&self, op: ThreadOp, map: fn(ThreadReply) -> T) -> OpFuture<'_, T> {
        OpFuture {
            call: self.cell.call(op),
            map,
        }
    }

    #[inline]
    fn access<T>(
        &self,
        addr: Addr,
        size: u8,
        kind: OpKind,
        value: u64,
        map: fn(ThreadReply) -> T,
    ) -> OpFuture<'_, T> {
        self.op(
            ThreadOp::Access {
                addr: addr.0,
                size,
                kind,
                value,
            },
            map,
        )
    }

    accessors!(load_u8, store_u8, scribble_u8, u8, 1,
        to_bits: |value| value as u64, from_bits: |r| r as u8);
    accessors!(load_u16, store_u16, scribble_u16, u16, 2,
        to_bits: |value| value as u64, from_bits: |r| r as u16);
    accessors!(load_u32, store_u32, scribble_u32, u32, 4,
        to_bits: |value| value as u64, from_bits: |r| r as u32);
    accessors!(load_u64, store_u64, scribble_u64, u64, 8,
        to_bits: |value| value, from_bits: |r| r);
    // Signed values travel as their two's-complement bits of the same
    // width (zero-extended, exactly like the unsigned accessors).
    accessors!(load_i32, store_i32, scribble_i32, i32, 4,
        to_bits: |value| value as u32 as u64, from_bits: |r| r as u32 as i32);
    accessors!(load_i64, store_i64, scribble_i64, i64, 8,
        to_bits: |value| value as u64, from_bits: |r| r as i64);
    // Floats travel as raw bit patterns (bit-pattern accurate, NaN
    // payloads and signed zeros included). Under Ghostwriter, small
    // d-distances on a scribble reach only the low mantissa bits (paper
    // §3.4).
    accessors!(load_f32, store_f32, scribble_f32, f32, 4,
        to_bits: |value| value.to_bits() as u64, from_bits: |r| f32::from_bits(r as u32));
    accessors!(load_f64, store_f64, scribble_f64, f64, 8,
        to_bits: |value| value.to_bits(), from_bits: |r| f64::from_bits(r));

    /// Charges `cycles` of compute time on this core (models the ALU work
    /// between memory accesses).
    #[inline]
    pub fn work(&self, cycles: u64) -> OpFuture<'_, ()> {
        self.op(ThreadOp::Work(cycles), drop)
    }

    /// Blocks until every live thread reaches a barrier (engine-level;
    /// costs `barrier_cost` cycles but no coherence traffic, DESIGN.md
    /// §7.5).
    pub fn barrier(&self) -> OpFuture<'_, ()> {
        self.op(ThreadOp::Barrier, drop)
    }

    /// Enters an approximate region with the given d-distance — the
    /// paper's `approx_dist(d)` + `approx_begin(...)` pragmas (`setaprx`).
    /// Subsequent scribbles may transition blocks to `GS`/`GI`.
    ///
    /// # Panics
    /// Panics if `d >= 64` (no access is wider than 64 bits).
    pub fn approx_begin(&self, d: u8) -> OpFuture<'_, ()> {
        assert!(d < 64, "d-distance must fit the widest access");
        self.op(ThreadOp::ApproxBegin { d }, drop)
    }

    /// Leaves the approximate region — the paper's `approx_end` pragma
    /// (`endaprx`). Blocks already in `GS`/`GI` are *not* flushed (paper
    /// §3.1); only new transitions are disabled.
    pub fn approx_end(&self) -> OpFuture<'_, ()> {
        self.op(ThreadOp::ApproxEnd, drop)
    }
}
