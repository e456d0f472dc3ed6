//! Typed views over simulated memory.
//!
//! Workloads address the simulated memory in raw bytes; these small
//! wrappers add element indexing, bounds checks and the right
//! load/store/scribble width, so kernels read like array code. Each
//! element access returns the same flat [`OpFuture`] the `ThreadCtx`
//! accessor does, so a view adds no generator frame of its own:
//!
//! ```
//! use ghostwriter_core::layout::ArrayI32;
//! use ghostwriter_core::{Machine, MachineConfig, Protocol};
//!
//! let mut m = Machine::new(MachineConfig::small(1, Protocol::Mesi));
//! let xs = ArrayI32::alloc(&mut m, 8);
//! for (i, v) in [5, -3, 7, 0, 1, 2, 4, 6].iter().enumerate() {
//!     m.backdoor_write_i32s(xs.addr(i), &[*v]);
//! }
//! m.add_thread(move |ctx| async move {
//!     let mut sum = 0;
//!     for i in 0..xs.len() {
//!         sum += xs.load(&ctx, i).await;
//!     }
//!     xs.store(&ctx, 0, sum).await;
//! });
//! let run = m.run();
//! assert_eq!(run.read_i32(xs.addr(0)), 22);
//! ```

use ghostwriter_mem::Addr;

use crate::ctx::{OpFuture, ThreadCtx};
use crate::machine::Machine;

macro_rules! array_view {
    ($name:ident, $ty:ty, $size:expr, $load:ident, $store:ident, $scribble:ident, $doc:expr) => {
        #[doc = $doc]
        ///
        /// The view is `Copy`, so it moves freely into thread closures.
        /// Allocation is block-padded (the paper's compiler pads annotated
        /// structures, §3.1); use [`Self::packed`] over a raw allocation
        /// when false sharing *is* the point.
        #[derive(Clone, Copy, Debug)]
        pub struct $name {
            base: Addr,
            len: usize,
        }

        impl $name {
            /// Allocates a block-padded array of `len` elements.
            pub fn alloc(m: &mut Machine, len: usize) -> Self {
                let base = m.alloc_padded(($size * len) as u64);
                Self { base, len }
            }

            /// Wraps an existing (e.g. deliberately packed) region.
            pub fn packed(base: Addr, len: usize) -> Self {
                Self { base, len }
            }

            /// Element count.
            #[allow(clippy::len_without_is_empty)]
            pub fn len(&self) -> usize {
                self.len
            }

            /// Base address of the array.
            pub fn base(&self) -> Addr {
                self.base
            }

            /// Address of element `i`.
            pub fn addr(&self, i: usize) -> Addr {
                assert!(i < self.len, "index {i} out of bounds ({})", self.len);
                self.base.add(($size * i) as u64)
            }

            /// Loads element `i` through the simulated hierarchy. The
            /// bounds check runs here, when the operation is built.
            #[inline]
            pub fn load<'c>(&self, ctx: &'c ThreadCtx, i: usize) -> OpFuture<'c, $ty> {
                ctx.$load(self.addr(i))
            }

            /// Conventional store to element `i`.
            #[inline]
            pub fn store<'c>(&self, ctx: &'c ThreadCtx, i: usize, v: $ty) -> OpFuture<'c, ()> {
                ctx.$store(self.addr(i), v)
            }

            /// Approximate store to element `i`.
            #[inline]
            pub fn scribble<'c>(&self, ctx: &'c ThreadCtx, i: usize, v: $ty) -> OpFuture<'c, ()> {
                ctx.$scribble(self.addr(i), v)
            }
        }
    };
}

array_view!(
    ArrayI32,
    i32,
    4,
    load_i32,
    store_i32,
    scribble_i32,
    "A simulated `[i32]`."
);
array_view!(
    ArrayU32,
    u32,
    4,
    load_u32,
    store_u32,
    scribble_u32,
    "A simulated `[u32]`."
);
array_view!(
    ArrayF32,
    f32,
    4,
    load_f32,
    store_f32,
    scribble_f32,
    "A simulated `[f32]` (bit-pattern accurate)."
);
array_view!(
    ArrayI64,
    i64,
    8,
    load_i64,
    store_i64,
    scribble_i64,
    "A simulated `[i64]`."
);
array_view!(
    ArrayF64,
    f64,
    8,
    load_f64,
    store_f64,
    scribble_f64,
    "A simulated `[f64]` (bit-pattern accurate)."
);
array_view!(
    ArrayU8,
    u8,
    1,
    load_u8,
    store_u8,
    scribble_u8,
    "A simulated `[u8]`."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    #[test]
    fn round_trip_all_views() {
        let mut m = Machine::new(MachineConfig::small(1, Protocol::Mesi));
        let a = ArrayI32::alloc(&mut m, 4);
        let b = ArrayF64::alloc(&mut m, 4);
        let c = ArrayU8::alloc(&mut m, 4);
        m.add_thread(move |ctx| async move {
            a.store(&ctx, 3, -77).await;
            b.store(&ctx, 2, 2.5).await;
            c.store(&ctx, 1, 200).await;
            assert_eq!(a.load(&ctx, 3).await, -77);
            assert_eq!(b.load(&ctx, 2).await, 2.5);
            assert_eq!(c.load(&ctx, 1).await, 200);
        });
        let run = m.run();
        assert_eq!(run.read_i32(a.addr(3)), -77);
        assert_eq!(run.read_f64(b.addr(2)), 2.5);
    }

    #[test]
    fn packed_views_share_blocks() {
        let mut m = Machine::new(MachineConfig::small(1, Protocol::Mesi));
        let base = m.alloc_padded(64);
        let view = ArrayU32::packed(base, 16);
        assert_eq!(view.addr(0).block(), view.addr(15).block());
    }

    #[test]
    fn alloc_is_block_padded() {
        let mut m = Machine::new(MachineConfig::small(1, Protocol::Mesi));
        let a = ArrayU8::alloc(&mut m, 3);
        let b = ArrayU8::alloc(&mut m, 3);
        assert_ne!(
            a.addr(0).block(),
            b.addr(0).block(),
            "views must not share blocks"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_are_checked() {
        let mut m = Machine::new(MachineConfig::small(1, Protocol::Mesi));
        let a = ArrayI32::alloc(&mut m, 2);
        a.addr(2);
    }
}
