//! Machine configuration. The defaults reproduce the paper's Table 1.

use crate::scribe::ScribePolicy;

/// What a store-like access does when it reaches a block in `GI` but is
/// not approximately similar to the stale contents.
///
/// The paper is readable both ways: Fig. 3 shows a `Store` self-loop on
/// `GI` (all stores hit locally until the timeout — what the Fig. 12
/// microbenchmark's error curve requires), while §3.1 says a scribble
/// failing the d-check "falls back to the conventional coherence
/// mechanisms" (a GETX, ending the hidden window — which bounds how much
/// approximate data a window can capture). Both are implemented;
/// `Fallback` is the default, `Capture` reproduces Fig. 12's regime. The
/// `ablation_states` experiment compares them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum GiStorePolicy {
    /// Failed scribbles issue a conventional GETX (§3.1 reading).
    #[default]
    Fallback,
    /// All store-like accesses hit in `GI` until the timeout (Fig. 3
    /// reading).
    Capture,
}

/// The write-invalidate protocol family the directory implements.
/// The paper builds Ghostwriter on MESI "without loss of generality"
/// (§3.2); the other variants demonstrate the claim that the
/// approximate states layer onto any invalidate protocol. Every family
/// is a row-set delta over the same declarative table
/// ([`crate::proto`]): MSI removes the Exclusive grant, MOESI/MOSI add
/// the dirty-sharing Owned state (the former owner keeps its dirty line
/// and the L2 fill is elided), and MESIF adds the clean Forward state
/// (one sharer is designated to answer future GETS from its clean
/// copy).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum BaseProtocol {
    /// MESI: sole readers receive Exclusive and upgrade to M silently.
    #[default]
    Mesi,
    /// MSI: readers always receive Shared.
    Msi,
    /// MOESI: MESI plus the Owned state — a forwarded owner keeps its
    /// dirty line in O and keeps supplying later readers, eliding the
    /// writeback to L2 until eviction.
    Moesi,
    /// MOSI: MOESI without the Exclusive grant.
    Mosi,
    /// MESIF: MESI plus the Forward state — the most recent reader of a
    /// shared block holds F and answers later GETS from its clean copy.
    Mesif,
}

impl BaseProtocol {
    /// Families that grant Exclusive to a sole reader (have an E state).
    pub const fn grant_exclusive(self) -> bool {
        matches!(
            self,
            BaseProtocol::Mesi | BaseProtocol::Moesi | BaseProtocol::Mesif
        )
    }

    /// Families with the dirty-sharing Owned state.
    pub const fn owned_state(self) -> bool {
        matches!(self, BaseProtocol::Moesi | BaseProtocol::Mosi)
    }

    /// Families with the clean-forwarding Forward state.
    pub const fn forward_state(self) -> bool {
        matches!(self, BaseProtocol::Mesif)
    }

    /// Canonical lower-case name (CLI / labels).
    pub const fn name(self) -> &'static str {
        match self {
            BaseProtocol::Mesi => "mesi",
            BaseProtocol::Msi => "msi",
            BaseProtocol::Moesi => "moesi",
            BaseProtocol::Mosi => "mosi",
            BaseProtocol::Mesif => "mesif",
        }
    }

    /// Every member of the family, in ladder order.
    pub const ALL: [BaseProtocol; 5] = [
        BaseProtocol::Mesi,
        BaseProtocol::Msi,
        BaseProtocol::Moesi,
        BaseProtocol::Mosi,
        BaseProtocol::Mesif,
    ];
}

/// Ghostwriter protocol options (paper Table 1 defaults).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GwConfig {
    /// Period of the per-controller timeout returning `GI` blocks to
    /// `I` (paper Table 1: 1024 cycles; Fig. 12 sweeps it).
    pub gi_timeout: u64,
    /// Comparator used by the scribe module.
    pub scribe: ScribePolicy,
    /// Ablation switch: allow `S → GS` transitions.
    pub enable_gs: bool,
    /// Ablation switch: allow `I → GI` transitions.
    pub enable_gi: bool,
    /// Behaviour of non-similar stores on `GI` blocks.
    pub gi_stores: GiStorePolicy,
    /// Optional runtime error bound (paper §3.5): after this many hidden
    /// approximate writes without a coherent resync, the next scribble
    /// is forced down the conventional path, publishing the block. This
    /// is the "light-weight dynamic scheme that monitors error during
    /// runtime" the paper points to for bounding worst-case divergence.
    pub max_hidden_writes: Option<u32>,
}

impl Default for GwConfig {
    fn default() -> Self {
        Self {
            gi_timeout: 1024,
            scribe: ScribePolicy::Bitwise,
            enable_gs: true,
            enable_gi: true,
            gi_stores: GiStorePolicy::Fallback,
            max_hidden_writes: None,
        }
    }
}

/// Which coherence protocol the L1s run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Protocol {
    /// Baseline write-invalidate directory protocol. Scribble
    /// instructions behave as conventional stores.
    Mesi,
    /// Ghostwriter: the baseline plus the approximate `GS`/`GI` states.
    Ghostwriter(GwConfig),
}

impl Protocol {
    /// The paper's Ghostwriter configuration (1024-cycle GI timeout,
    /// bit-wise scribe, both approximate states enabled).
    pub fn ghostwriter() -> Self {
        Protocol::Ghostwriter(GwConfig::default())
    }

    /// Ghostwriter with a non-default GI timeout (Fig. 12 sensitivity).
    pub fn ghostwriter_with_timeout(gi_timeout: u64) -> Self {
        Protocol::Ghostwriter(GwConfig {
            gi_timeout,
            ..GwConfig::default()
        })
    }

    /// Ghostwriter with the Fig. 3 `Capture` GI-store policy and the
    /// given timeout (the Fig. 12 microbenchmark regime).
    pub fn ghostwriter_capture(gi_timeout: u64) -> Self {
        Protocol::Ghostwriter(GwConfig {
            gi_timeout,
            gi_stores: GiStorePolicy::Capture,
            ..GwConfig::default()
        })
    }

    /// True for any Ghostwriter variant.
    pub fn is_ghostwriter(&self) -> bool {
        matches!(self, Protocol::Ghostwriter(_))
    }
}

/// Full machine configuration (paper Table 1 by default).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores (= tiles = L1s = L2 banks).
    pub cores: usize,
    /// Private L1 data cache capacity in kilobytes.
    pub l1_kb: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit / fill latency in cycles.
    pub l1_latency: u64,
    /// Capacity of each shared-L2 bank in kilobytes (one bank per core).
    pub l2_bank_kb: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 bank access latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles (DDR3-1600-class behind the
    /// controllers).
    pub dram_latency: u64,
    /// Per-hop router traversal latency.
    pub router_cycles: u64,
    /// Per-hop link traversal latency.
    pub link_cycles: u64,
    /// Coherence protocol (baseline vs Ghostwriter).
    pub protocol: Protocol,
    /// Protocol family of the underlying directory (MESI or MSI).
    pub base_protocol: BaseProtocol,
    /// Cost in cycles of the engine-level thread barrier (DESIGN.md §7.5:
    /// barriers are "magic" so they do not pollute coherence statistics).
    pub barrier_cost: u64,
    /// Record the Fig. 2 store value-similarity histogram (tiny overhead).
    pub collect_similarity: bool,
    /// Simulate OS context switches: every `period` cycles each core
    /// forfeits its approximate (GS/GI) blocks, as the paper's §3.5
    /// requires for descheduled threads ("the approximate data cannot be
    /// switched/migrated; the data updates are forfeited"). `None`
    /// (default) models pinned threads, as the paper's evaluation does.
    pub context_switch_period: Option<u64>,
    /// Model per-link serialization in the NoC: each directional mesh
    /// link carries one flit per `link_cycles`, so bursts queue behind
    /// each other. Off by default (contention-free latency, DESIGN.md
    /// §7.4); turning it on only sharpens Ghostwriter's advantage, since
    /// eliminated messages also stop congesting links.
    pub model_contention: bool,
}

impl Default for MachineConfig {
    /// Paper Table 1: 24 cores, 32 kB 2-way L1 (2 cycles), 128 kB/bank
    /// 8-way L2 (10 cycles), mesh with 1-cycle routers and links, MESI
    /// baseline.
    fn default() -> Self {
        Self {
            cores: 24,
            l1_kb: 32,
            l1_ways: 2,
            l1_latency: 2,
            l2_bank_kb: 128,
            l2_ways: 8,
            l2_latency: 10,
            dram_latency: 60,
            router_cycles: 1,
            link_cycles: 1,
            protocol: Protocol::Mesi,
            base_protocol: BaseProtocol::Mesi,
            barrier_cost: 100,
            collect_similarity: true,
            context_switch_period: None,
            model_contention: false,
        }
    }
}

impl MachineConfig {
    /// Paper Table 1 with the Ghostwriter protocol enabled.
    pub fn paper_ghostwriter() -> Self {
        Self {
            protocol: Protocol::ghostwriter(),
            ..Self::default()
        }
    }

    /// A small machine for tests: `cores` cores, smaller caches, same
    /// latencies. Keeps unit and property tests fast while exercising the
    /// same protocol paths (including L2 recalls, thanks to the small L2).
    pub fn small(cores: usize, protocol: Protocol) -> Self {
        Self {
            cores,
            l1_kb: 4,
            l1_ways: 2,
            l2_bank_kb: 16,
            l2_ways: 4,
            protocol,
            ..Self::default()
        }
    }

    /// [`MachineConfig::small`] on a non-default base protocol family.
    pub fn small_base(cores: usize, protocol: Protocol, base: BaseProtocol) -> Self {
        Self {
            base_protocol: base,
            ..Self::small(cores, protocol)
        }
    }

    /// Canonical configuration key for content-addressed result caching.
    ///
    /// Built from the derived `Debug` representation, which covers every
    /// field (including the nested protocol/scribe/timeout options), so
    /// adding a configuration knob automatically changes the key — a new
    /// knob can never silently alias cached results produced before it
    /// existed. The `cfgv1:` prefix versions the scheme itself.
    pub fn cache_key(&self) -> String {
        format!("cfgv1:{self:?}")
    }

    /// Checks internal consistency: the one list of constraints a
    /// machine needs, for callers that want an error instead of a panic.
    pub fn check(&self) -> Result<(), ConfigError> {
        let sets_pow2 = |kb: usize, ways: usize| {
            (kb * 1024 / 64)
                .checked_div(ways)
                .is_some_and(usize::is_power_of_two)
        };
        if !(1..=64).contains(&self.cores) {
            return Err(ConfigError("cores must be in 1..=64"));
        }
        if !sets_pow2(self.l1_kb, self.l1_ways) {
            return Err(ConfigError("L1 sets must be a power of two"));
        }
        if !sets_pow2(self.l2_bank_kb, self.l2_ways) {
            return Err(ConfigError("L2 sets must be a power of two"));
        }
        if self.context_switch_period == Some(0) {
            return Err(ConfigError("context-switch period must be positive"));
        }
        if let Protocol::Ghostwriter(gw) = self.protocol {
            if gw.gi_timeout == 0 {
                return Err(ConfigError("GI timeout must be positive"));
            }
            if gw.max_hidden_writes == Some(0) {
                return Err(ConfigError("error bound must be positive"));
            }
        }
        Ok(())
    }

    /// Panics unless [`MachineConfig::check`] passes; called by the
    /// machine builder.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid machine config: {e}");
        }
    }
}

/// The constraint a [`MachineConfig`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_table1() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 24);
        assert_eq!(c.l1_kb, 32);
        assert_eq!(c.l1_ways, 2);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.l2_bank_kb, 128);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.l2_latency, 10);
        assert_eq!(c.router_cycles, 1);
        assert_eq!(c.link_cycles, 1);
        assert_eq!(c.protocol, Protocol::Mesi);
        c.validate();
    }

    #[test]
    fn ghostwriter_default_timeout_is_1024() {
        match Protocol::ghostwriter() {
            Protocol::Ghostwriter(gw) => {
                assert_eq!(gw.gi_timeout, 1024);
                assert!(gw.enable_gs && gw.enable_gi);
                assert_eq!(gw.gi_stores, GiStorePolicy::Fallback);
                assert_eq!(gw.max_hidden_writes, None);
            }
            _ => unreachable!(),
        }
        assert!(Protocol::ghostwriter().is_ghostwriter());
        assert!(!Protocol::Mesi.is_ghostwriter());
    }

    #[test]
    fn small_config_validates() {
        MachineConfig::small(4, Protocol::ghostwriter()).validate();
        MachineConfig::small(1, Protocol::Mesi).validate();
    }

    #[test]
    #[should_panic(expected = "GI timeout")]
    fn zero_timeout_rejected() {
        MachineConfig::small(2, Protocol::ghostwriter_with_timeout(0)).validate();
    }

    #[test]
    fn cache_key_separates_every_knob() {
        let base = MachineConfig::small(4, Protocol::Mesi);
        let same = MachineConfig::small(4, Protocol::Mesi);
        assert_eq!(base.cache_key(), same.cache_key());
        let variants = [
            MachineConfig::small(5, Protocol::Mesi),
            MachineConfig::small(4, Protocol::ghostwriter()),
            MachineConfig::small(4, Protocol::ghostwriter_with_timeout(512)),
            MachineConfig::small(4, Protocol::ghostwriter_capture(1024)),
            MachineConfig {
                model_contention: true,
                ..MachineConfig::small(4, Protocol::Mesi)
            },
            MachineConfig {
                base_protocol: BaseProtocol::Msi,
                ..MachineConfig::small(4, Protocol::Mesi)
            },
            MachineConfig::small_base(4, Protocol::Mesi, BaseProtocol::Moesi),
            MachineConfig::small_base(4, Protocol::Mesi, BaseProtocol::Mosi),
            MachineConfig::small_base(4, Protocol::Mesi, BaseProtocol::Mesif),
        ];
        for v in &variants {
            assert_ne!(base.cache_key(), v.cache_key(), "{v:?}");
        }
        // The ladder members are pairwise distinct too.
        let keys: Vec<String> = BaseProtocol::ALL
            .iter()
            .map(|&b| MachineConfig::small_base(4, Protocol::Mesi, b).cache_key())
            .collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn base_protocol_family_predicates() {
        use BaseProtocol::*;
        for b in BaseProtocol::ALL {
            assert_eq!(b.grant_exclusive(), matches!(b, Mesi | Moesi | Mesif));
            assert_eq!(b.owned_state(), matches!(b, Moesi | Mosi));
            assert_eq!(b.forward_state(), matches!(b, Mesif));
        }
        assert_eq!(Moesi.name(), "moesi");
        assert_eq!(Mesif.name(), "mesif");
    }
}
