//! Deterministic fault injection and the recovery knobs that tolerate it.
//!
//! One seeded [`FaultConfig`] drives every injector in the workspace: the
//! full timing simulator perturbs its delivery path through it, and the
//! model checker's bounded-fault schedules draw from the same
//! source-restricted legality predicates ([`droppable`], [`corruptible`]).
//! All randomness is *counter-based* (splitmix64 over `(seed, stream,
//! n)`), so outcomes depend only on the configuration and the index of
//! the decision — never on iteration order, thread count or wall clock.
//! That is what makes fault campaigns byte-identical across `--jobs`
//! levels and cacheable by content address.
//!
//! `FaultConfig::default()` is the all-off configuration: no fault is
//! ever injected, no recovery state is allocated, and every hash,
//! fingerprint, cache key and golden stays byte-identical to a build
//! without this module. Fault-free runs must not pay for resilience.
//!
//! ## The fault surface is source-restricted
//!
//! Not every message class is recoverable, so not every message class is
//! faultable. The protocol's request/grant loop (L1 request → directory
//! grant) is protected end-to-end by sequence numbers, timeouts and
//! duplicate suppression; everything else — invalidations, forwards,
//! acks, unblocks, writebacks and L1→L1 owner data — is modeled as
//! riding a reliable virtual channel (in hardware: a CRC-protected,
//! credit-flow link with link-level retry). Dropping an `Unblock` or an
//! L1→L1 `Data` forward is unrecoverable by *any* endpoint-level
//! protocol because no endpoint times out waiting for it; injecting
//! such faults would only prove the obvious (the protocol deadlocks),
//! not exercise recovery. See `docs/faults.md` for the full argument.

use crate::msg::{Endpoint, PayloadOf};

/// Recovery knobs threaded into both controllers. `None` (the default
/// everywhere) means the recovery rows are dead and every message
/// carries the default wire tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RecoveryParams {
    /// Retries an L1 MSHR issues before declaring the transaction lost
    /// (`retry_exhausted`, a typed protocol error).
    pub max_retries: u32,
    /// Cycles the machine waits for a grant before the first retry.
    pub timeout_cycles: u64,
    /// Exponential backoff base: retry `k` waits
    /// `timeout_cycles * backoff_base^k` (exponent capped at 16).
    pub backoff_base: u32,
    /// Directory NACKs a fill whose L2 set is fully pinned instead of
    /// stalling it. Off by default: the resend loop it creates is
    /// livelock-prone under adversarial schedules (documented caveat).
    pub nack_on_conflict: bool,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            max_retries: 8,
            timeout_cycles: 400,
            backoff_base: 2,
            nack_on_conflict: false,
        }
    }
}

impl RecoveryParams {
    /// Parameters for the model checker: timing is meaningless there
    /// (retries are explicit schedule actions), and the retry budget is
    /// kept small so the reachable state space stays bounded.
    pub fn checker() -> Self {
        RecoveryParams {
            max_retries: 2,
            timeout_cycles: 1,
            backoff_base: 1,
            nack_on_conflict: false,
        }
    }

    /// Stable textual form for cache keys.
    pub fn key(&self) -> String {
        format!(
            "r{},t{},b{},n{}",
            self.max_retries, self.timeout_cycles, self.backoff_base, self.nack_on_conflict as u8
        )
    }
}

/// Independent decision streams drawn from one seed. Each injection
/// point owns a stream so adding a new fault class never perturbs the
/// draws of an existing one.
pub mod stream {
    /// Per-message drop decision.
    pub const DROP: u64 = 1;
    /// Per-message duplicate decision.
    pub const DUP: u64 = 2;
    /// Per-message extra-delay decision.
    pub const DELAY: u64 = 3;
    /// Per-message payload corruption decision.
    pub const CORRUPT: u64 = 4;
    /// Which bit of the 512-bit block a corruption flips.
    pub const CORRUPT_BIT: u64 = 5;
    /// Per-tick resident-line bit-flip decision (SEU model).
    pub const LINE_FLIP: u64 = 6;
    /// Which resident line / bit a line flip hits.
    pub const LINE_FLIP_AT: u64 = 7;
    /// Per-tick forced GI-timeout-storm decision.
    pub const GI_STORM: u64 = 8;
}

/// What the injector decided for one message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver twice (the copy takes the same latency).
    Duplicate,
    /// Deliver after this many extra cycles.
    Delay(u64),
}

/// Deterministic, seeded fault-injection configuration.
///
/// Rates are in permille (0–1000) so campaign grids can express rates
/// below 1% exactly. The default is all-off; [`FaultConfig::is_noop`]
/// gates every injector so fault-free runs skip the draw entirely.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct FaultConfig {
    /// Root seed; all decision streams derive from it.
    pub seed: u64,
    /// Per-message drop probability (droppable classes only), permille.
    pub drop_permille: u16,
    /// Per-message duplication probability, permille.
    pub dup_permille: u16,
    /// Per-message extra-delay probability, permille.
    pub delay_permille: u16,
    /// Extra cycles a delayed message waits.
    pub delay_cycles: u64,
    /// Per-message payload bit-flip probability (corruptible classes
    /// only), permille. Flipped payloads carry the taint bit (a
    /// detectable ECC mismatch).
    pub corrupt_permille: u16,
    /// Per-tick, per-core probability of flipping one bit in a resident
    /// L1 line (an *undetected* soft error), permille.
    pub line_flip_permille: u16,
    /// Per-tick, per-core probability of forcing a GI timeout sweep
    /// (timeout-storm model), permille.
    pub gi_storm_permille: u16,
    /// Period of the background fault tick driving line flips and GI
    /// storms. 0 disables the tick even if the rates are nonzero.
    pub tick_cycles: u64,
    /// Recovery knobs; `None` leaves the recovery rows dead.
    pub recovery: Option<RecoveryParams>,
}

impl FaultConfig {
    /// True when no injector can ever fire and recovery is off — the
    /// configuration under which every code path must be byte-identical
    /// to a fault-unaware build.
    pub fn is_noop(&self) -> bool {
        self.drop_permille == 0
            && self.dup_permille == 0
            && self.delay_permille == 0
            && self.corrupt_permille == 0
            && (self.tick_cycles == 0
                || (self.line_flip_permille == 0 && self.gi_storm_permille == 0))
            && self.recovery.is_none()
    }

    /// True when any per-message injector is live.
    pub fn perturbs_messages(&self) -> bool {
        self.drop_permille > 0
            || self.dup_permille > 0
            || self.delay_permille > 0
            || self.corrupt_permille > 0
    }

    /// True when the background fault tick should run.
    pub fn ticks(&self) -> bool {
        self.tick_cycles > 0 && (self.line_flip_permille > 0 || self.gi_storm_permille > 0)
    }

    /// Stable textual form for content-addressed cache keys.
    pub fn key(&self) -> String {
        let rec = match &self.recovery {
            Some(r) => r.key(),
            None => "off".to_string(),
        };
        format!(
            "s{}|d{}|u{}|y{}x{}|c{}|f{}|g{}|t{}|rec={}",
            self.seed,
            self.drop_permille,
            self.dup_permille,
            self.delay_permille,
            self.delay_cycles,
            self.corrupt_permille,
            self.line_flip_permille,
            self.gi_storm_permille,
            self.tick_cycles,
            rec
        )
    }

    /// Raw draw on `stream` at counter `n`: uniform `u64`.
    #[inline]
    pub fn draw(&self, stream: u64, n: u64) -> u64 {
        mix(self.seed, stream, n)
    }

    /// Permille draw on `stream` at counter `n`: true with probability
    /// `permille / 1000`.
    #[inline]
    fn hit(&self, stream: u64, n: u64, permille: u16) -> bool {
        permille > 0 && self.draw(stream, n) % 1000 < u64::from(permille)
    }

    /// Transport fate of the `n`-th faultable message. The classes are
    /// drawn in priority order (drop ≻ duplicate ≻ delay) from
    /// independent streams, so enabling one class never changes the
    /// decisions of another at the same counter.
    pub fn fate(&self, n: u64) -> Fate {
        if self.hit(stream::DROP, n, self.drop_permille) {
            Fate::Drop
        } else if self.hit(stream::DUP, n, self.dup_permille) {
            Fate::Duplicate
        } else if self.hit(stream::DELAY, n, self.delay_permille) {
            Fate::Delay(self.delay_cycles)
        } else {
            Fate::Deliver
        }
    }

    /// Bit to flip in the `n`-th corruptible payload, if the corruption
    /// draw hits. The index is over the 512 bits of the block.
    pub fn corrupt_bit(&self, n: u64) -> Option<u32> {
        if self.hit(stream::CORRUPT, n, self.corrupt_permille) {
            Some((self.draw(stream::CORRUPT_BIT, n) % 512) as u32)
        } else {
            None
        }
    }

    /// Line-flip decision for core `core` at tick `tick`: which
    /// (resident-line draw, bit) to flip, if the draw hits. The line
    /// draw is reduced modulo the number of resident lines by the cache.
    pub fn line_flip(&self, tick: u64, core: usize) -> Option<(u64, u32)> {
        let n = tick.wrapping_mul(0x10001).wrapping_add(core as u64);
        if self.hit(stream::LINE_FLIP, n, self.line_flip_permille) {
            let at = self.draw(stream::LINE_FLIP_AT, n);
            Some((at >> 9, (at % 512) as u32))
        } else {
            None
        }
    }

    /// GI-storm decision for core `core` at tick `tick`.
    pub fn gi_storm(&self, tick: u64, core: usize) -> bool {
        let n = tick.wrapping_mul(0x10001).wrapping_add(core as u64);
        self.hit(stream::GI_STORM, n, self.gi_storm_permille)
    }
}

/// Counter-based splitmix64: a stateless PRNG draw fully determined by
/// `(seed, stream, n)`.
#[inline]
pub fn mix(seed: u64, stream: u64, n: u64) -> u64 {
    let z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(n.wrapping_mul(0x94d049bb133111eb))
        .wrapping_add(0x2545f4914f6cdd1d);
    fmix64(z)
}

/// The splitmix64 output finaliser: a bijective avalanche of one word.
/// Also finalises the lanes of the checker's state fingerprint
/// (`System::fingerprint`).
#[inline]
pub(crate) fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// True if the injector may drop or duplicate this message.
///
/// Exactly the request/grant loop: L1→Dir requests (the requestor's
/// retry timer recovers a loss) and Dir→L1 grants (`Data`/`UpgAck` —
/// the same timer plus the directory's retained-grant resend recover
/// it). Every other class rides the modeled-reliable virtual channel.
/// Note `Data` is droppable only *from the directory*: an L1→L1 owner
/// forward (`FwdGets` relay) has no requestor-side timeout that could
/// distinguish it from a directory grant loss, and retrying the
/// original request would be suppressed as a duplicate at the
/// directory — so owner forwards are not on the faultable surface.
pub fn droppable<D>(src: Endpoint, payload: &PayloadOf<D>) -> bool {
    match payload {
        PayloadOf::Gets | PayloadOf::Getx | PayloadOf::Upgrade => matches!(src, Endpoint::L1(_)),
        PayloadOf::Data { .. } | PayloadOf::UpgAck => matches!(src, Endpoint::Dir(_)),
        _ => false,
    }
}

/// True if the injector may flip payload bits in this message (setting
/// the taint bit): demand fills from the directory and DRAM fills to
/// the directory — the two hops where a receiver-side detect-and-refetch
/// protocol exists.
pub fn corruptible<D>(src: Endpoint, payload: &PayloadOf<D>) -> bool {
    match payload {
        PayloadOf::Data { .. } => matches!(src, Endpoint::Dir(_)),
        PayloadOf::MemData { .. } => matches!(src, Endpoint::Mem(_)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        let f = FaultConfig::default();
        assert!(f.is_noop());
        assert!(!f.perturbs_messages());
        assert!(!f.ticks());
        for n in 0..1000 {
            assert_eq!(f.fate(n), Fate::Deliver);
            assert_eq!(f.corrupt_bit(n), None);
        }
    }

    #[test]
    fn draws_are_counter_based_and_order_free() {
        let f = FaultConfig {
            seed: 42,
            drop_permille: 100,
            dup_permille: 100,
            corrupt_permille: 50,
            ..FaultConfig::default()
        };
        // Same (seed, counter) → same decision, regardless of call order.
        let forward: Vec<_> = (0..64).map(|n| f.fate(n)).collect();
        let backward: Vec<_> = (0..64).rev().map(|n| f.fate(n)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Different seeds decorrelate.
        let g = FaultConfig { seed: 43, ..f };
        assert_ne!(
            (0..256).map(|n| f.fate(n)).collect::<Vec<_>>(),
            (0..256).map(|n| g.fate(n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let f = FaultConfig {
            seed: 7,
            drop_permille: 250,
            ..FaultConfig::default()
        };
        let drops = (0..10_000).filter(|&n| f.fate(n) == Fate::Drop).count();
        assert!((2000..3000).contains(&drops), "drop count {drops}");
    }

    #[test]
    fn enabling_one_class_does_not_move_another() {
        // Drop decisions at each counter are identical whether or not
        // duplication is also enabled (independent streams).
        let a = FaultConfig {
            seed: 9,
            drop_permille: 200,
            ..FaultConfig::default()
        };
        let b = FaultConfig {
            dup_permille: 500,
            ..a
        };
        for n in 0..2000 {
            assert_eq!(a.fate(n) == Fate::Drop, b.fate(n) == Fate::Drop);
        }
    }

    #[test]
    fn fault_surface_is_source_restricted() {
        use crate::msg::Grant;
        use ghostwriter_mem::BlockData;
        let d = BlockData::zeroed();
        let data = PayloadOf::Data {
            data: d,
            grant: Grant::Shared,
        };
        // Grants are droppable from the directory, not from an L1 owner
        // forward (that channel has no requestor-side recovery).
        assert!(droppable(Endpoint::Dir(0), &data));
        assert!(!droppable(Endpoint::L1(1), &data));
        assert!(droppable(Endpoint::L1(0), &PayloadOf::<BlockData>::Gets));
        // Completion and ack traffic rides the reliable channel.
        assert!(!droppable(
            Endpoint::L1(0),
            &PayloadOf::<BlockData>::Unblock
        ));
        assert!(!droppable(Endpoint::L1(0), &PayloadOf::<BlockData>::InvAck));
        assert!(!droppable(Endpoint::Dir(0), &PayloadOf::<BlockData>::Inv));
        // Corruption: directory fills and DRAM fills only.
        assert!(corruptible(Endpoint::Dir(0), &data));
        assert!(!corruptible(Endpoint::L1(1), &data));
        assert!(corruptible(
            Endpoint::Mem(0),
            &PayloadOf::MemData { data: d }
        ));
        assert!(!corruptible(
            Endpoint::L1(0),
            &PayloadOf::DataToDir {
                data: d,
                xfer: crate::msg::OwnerXfer::Dropped
            }
        ));
    }

    #[test]
    fn keys_are_stable_and_distinguishing() {
        let base = FaultConfig::default();
        assert_eq!(base.key(), "s0|d0|u0|y0x0|c0|f0|g0|t0|rec=off");
        let mut with = base;
        with.drop_permille = 5;
        with.recovery = Some(RecoveryParams::default());
        assert_eq!(with.key(), "s0|d5|u0|y0x0|c0|f0|g0|t0|rec=r8,t400,b2,n0");
        assert_ne!(base.key(), with.key());
    }
}
