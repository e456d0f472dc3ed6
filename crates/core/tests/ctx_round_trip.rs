//! Every `ThreadCtx` accessor moves its value through the simulated
//! memory bit-exactly: the u64 <-> T conversions are written by hand per
//! type, so each one is checked at its width, sign and float edge cases
//! (signed zero, NaN payloads), for load, store and scribble, and through
//! a `layout` view.

use ghostwriter_core::layout::{ArrayF32, ArrayF64, ArrayI32, ArrayI64};
use ghostwriter_core::{Addr, Machine, MachineConfig, Protocol, SimReport, ThreadCtx};

const U64: u64 = 0xFEDC_BA98_7654_3210;
/// Signed zeros, and quiet NaNs with non-trivial payloads, one of them
/// negative.
const F32_NEG_ZERO: u32 = 0x8000_0000;
const F64_NEG_ZERO: u64 = 0x8000_0000_0000_0000;
const F32_NAN: u32 = 0x7FC1_2345;
const F32_NEG_NAN: u32 = 0xFFC0_0001;
const F64_NAN: u64 = 0x7FF8_0000_DEAD_BEEF;
const F64_NEG_NAN: u64 = 0xFFF0_0000_0000_0001;

/// Writes through every store-like accessor at `base`, reading each
/// value straight back; `scribble` picks the scribble accessors.
async fn write_and_read_back(ctx: &ThreadCtx, base: Addr, scribble: bool) {
    macro_rules! check {
        ($store:ident, $scribble:ident, $load:ident, $off:expr, $v:expr) => {{
            let addr = base.add($off);
            if scribble {
                ctx.$scribble(addr, $v).await;
            } else {
                ctx.$store(addr, $v).await;
            }
            let got = ctx.$load(addr).await;
            assert_eq!(got, $v, "{} at +{}", stringify!($load), $off);
        }};
    }
    check!(store_u8, scribble_u8, load_u8, 0, 0xA5u8);
    check!(store_u8, scribble_u8, load_u8, 1, u8::MAX);
    check!(store_u16, scribble_u16, load_u16, 2, 0xBEEFu16);
    check!(store_u32, scribble_u32, load_u32, 4, 0xDEAD_BEEFu32);
    check!(store_u64, scribble_u64, load_u64, 8, U64);
    check!(store_i32, scribble_i32, load_i32, 16, -2i32);
    check!(store_i32, scribble_i32, load_i32, 20, i32::MIN);
    check!(store_i64, scribble_i64, load_i64, 24, -3i64);
    check!(store_i64, scribble_i64, load_i64, 32, i64::MIN);

    // Floats compare by bits: -0.0 == 0.0 and NaN != NaN as values.
    macro_rules! check_float {
        ($store:ident, $scribble:ident, $load:ident, $ty:ty, $off:expr, $bits:expr) => {{
            let addr = base.add($off);
            let v = <$ty>::from_bits($bits);
            if scribble {
                ctx.$scribble(addr, v).await;
            } else {
                ctx.$store(addr, v).await;
            }
            let got = ctx.$load(addr).await.to_bits();
            assert_eq!(got, $bits, "{} at +{}", stringify!($load), $off);
        }};
    }
    check_float!(store_f32, scribble_f32, load_f32, f32, 40, F32_NEG_ZERO);
    check_float!(store_f32, scribble_f32, load_f32, f32, 44, F32_NAN);
    check_float!(store_f32, scribble_f32, load_f32, f32, 48, F32_NEG_NAN);
    check_float!(store_f64, scribble_f64, load_f64, f64, 56, F64_NEG_ZERO);
    check_float!(store_f64, scribble_f64, load_f64, f64, 64, F64_NAN);
    check_float!(store_f64, scribble_f64, load_f64, f64, 72, F64_NEG_NAN);
}

/// Checks the final memory image holds what `write_and_read_back` wrote
/// at `base`, and that the narrow stores left their neighbours alone.
fn assert_image(run: &ghostwriter_core::FinishedRun, base: Addr) {
    let mut bytes = [0u8; 8];
    run.read(base, &mut bytes);
    assert_eq!(bytes[..2], [0xA5, 0xFF]);
    assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 0xBEEF);
    assert_eq!(run.read_u32(base.add(4)), 0xDEAD_BEEF);
    assert_eq!(run.read_u64(base.add(8)), U64);
    assert_eq!(run.read_i32(base.add(16)), -2);
    assert_eq!(run.read_i32(base.add(20)), i32::MIN);
    assert_eq!(run.read_i64(base.add(24)), -3);
    assert_eq!(run.read_i64(base.add(32)), i64::MIN);
    assert_eq!(run.read_f32(base.add(40)).to_bits(), F32_NEG_ZERO);
    assert_eq!(run.read_f32(base.add(44)).to_bits(), F32_NAN);
    assert_eq!(run.read_f32(base.add(48)).to_bits(), F32_NEG_NAN);
    assert_eq!(run.read_f64(base.add(56)).to_bits(), F64_NEG_ZERO);
    assert_eq!(run.read_f64(base.add(64)).to_bits(), F64_NAN);
    assert_eq!(run.read_f64(base.add(72)).to_bits(), F64_NEG_NAN);
}

fn machine() -> (Machine, Addr) {
    let mut m = Machine::new(MachineConfig::small(1, Protocol::ghostwriter()));
    let base = m.alloc_padded(128);
    (m, base)
}

#[test]
fn stores_and_loads_round_trip_bit_exactly() {
    let (mut m, base) = machine();
    m.add_thread(move |ctx| async move {
        write_and_read_back(&ctx, base, false).await;
    });
    let run = m.run();
    assert_image(&run, base);
}

#[test]
fn narrow_accessors_touch_only_their_bytes() {
    let (mut m, base) = machine();
    m.add_thread(move |ctx| async move {
        ctx.store_u64(base, 0x1122_3344_5566_7788).await;
        ctx.store_u8(base.add(1), 0xAA).await;
        ctx.store_u16(base.add(4), 0xBBCC).await;
        assert_eq!(ctx.load_u64(base).await, 0x1122_BBCC_5566_AA88);
        assert_eq!(ctx.load_u32(base).await, 0x5566_AA88);
        assert_eq!(ctx.load_u16(base.add(2)).await, 0x5566);
        // Unsigned loads zero-extend; signed ones keep the sign.
        ctx.store_i32(base.add(8), -1).await;
        assert_eq!(ctx.load_u32(base.add(8)).await, u32::MAX);
        assert_eq!(ctx.load_u8(base.add(8)).await, u8::MAX);
        assert_eq!(ctx.load_i32(base.add(8)).await, -1);
        assert_eq!(
            ctx.load_u32(base.add(12)).await,
            0,
            "i32 store spilled over"
        );
    });
    m.run();
}

#[test]
fn scribbles_inside_a_region_round_trip_bit_exactly() {
    // The lines are already M when scribbled (a fill came first), so a
    // scribble is a plain write hit and its exact bits must land.
    let (mut m, base) = machine();
    m.add_thread(move |ctx| async move {
        write_and_read_back(&ctx, base, false).await;
        ctx.approx_begin(8).await;
        write_and_read_back(&ctx, base, true).await;
        ctx.approx_end().await;
    });
    let run = m.run();
    assert_image(&run, base);
    assert!(
        run.report.stats.scribbles > 0,
        "scribbles must be real in a region"
    );
}

/// Runs the accessor sweep at a fresh block with stores or with
/// scribbles, outside any approximate region.
fn outside_region(scribble: bool) -> SimReport {
    let (mut m, base) = machine();
    m.add_thread(move |ctx| async move {
        write_and_read_back(&ctx, base, scribble).await;
    });
    let run = m.run();
    assert_image(&run, base);
    run.report
}

#[test]
fn a_scribble_outside_a_region_is_a_store() {
    let stored = outside_region(false);
    let scribbled = outside_region(true);
    assert_eq!(scribbled.stats.scribbles, 0, "demoted to stores");
    assert_eq!(scribbled.cycles, stored.cycles);
    assert_eq!(scribbled.stats.to_json(), stored.stats.to_json());
}

#[test]
fn layout_views_round_trip_bit_exactly() {
    let mut m = Machine::new(MachineConfig::small(1, Protocol::ghostwriter()));
    let f32s = ArrayF32::alloc(&mut m, 3);
    let f64s = ArrayF64::alloc(&mut m, 3);
    let i32s = ArrayI32::alloc(&mut m, 2);
    let i64s = ArrayI64::alloc(&mut m, 2);
    let f32_bits = [F32_NEG_ZERO, F32_NAN, F32_NEG_NAN];
    let f64_bits = [F64_NEG_ZERO, F64_NAN, F64_NEG_NAN];
    m.add_thread(move |ctx| async move {
        for (i, bits) in f32_bits.into_iter().enumerate() {
            f32s.store(&ctx, i, f32::from_bits(bits)).await;
            assert_eq!(f32s.load(&ctx, i).await.to_bits(), bits);
        }
        for (i, bits) in f64_bits.into_iter().enumerate() {
            f64s.store(&ctx, i, f64::from_bits(bits)).await;
            assert_eq!(f64s.load(&ctx, i).await.to_bits(), bits);
        }
        i32s.store(&ctx, 0, i32::MIN).await;
        ctx.approx_begin(4).await;
        i32s.scribble(&ctx, 1, -7).await;
        i64s.scribble(&ctx, 1, -9).await;
        ctx.approx_end().await;
        i64s.store(&ctx, 0, i64::MIN).await;
        assert_eq!(i32s.load(&ctx, 0).await, i32::MIN);
        assert_eq!(i32s.load(&ctx, 1).await, -7);
        assert_eq!(i64s.load(&ctx, 0).await, i64::MIN);
        assert_eq!(i64s.load(&ctx, 1).await, -9);
    });
    let run = m.run();
    for (i, bits) in f32_bits.into_iter().enumerate() {
        assert_eq!(run.read_f32(f32s.addr(i)).to_bits(), bits);
    }
    for (i, bits) in f64_bits.into_iter().enumerate() {
        assert_eq!(run.read_f64(f64s.addr(i)).to_bits(), bits);
    }
    assert_eq!(run.read_i32(i32s.addr(0)), i32::MIN);
    assert_eq!(run.read_i64(i64s.addr(0)), i64::MIN);
}
