//! Per-layer kernels: timed loops over one public function each, with
//! inputs shaped like the workload whose layer they isolate. Every
//! kernel runs a fixed amount of work three times and keeps the fastest
//! pass; its seeded input streams are drawn before the clock starts.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use ghostwriter_check::{ProtocolKind, SweepSpec};
use ghostwriter_core::System;
use ghostwriter_exp::{RunRecord, RunSpec};
use ghostwriter_mem::{BlockAddr, BlockData, SetAssocCache, TreePlru, WayLookup};
use ghostwriter_noc::{Mesh, NodeId};
use ghostwriter_sim::EventQueue;

use crate::trace::Tracer;
use crate::workloads::{distinct, Size, TempCache};

/// Timed passes per kernel; the fastest counts.
const PASSES: usize = 3;

/// One kernel's fastest pass.
pub struct Rate {
    pub metric: &'static str,
    pub ops: u64,
    pub secs: f64,
}

impl Rate {
    pub fn per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// SplitMix64: a small seeded stream for kernel inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Runs `pass` [`PASSES`] times; returns its op count and fastest time.
fn fastest(mut pass: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    (0..PASSES).map(|_| pass()).fold(
        (0, f64::INFINITY),
        |best, p| if p.1 < best.1 { p } else { best },
    )
}

fn timed(f: impl FnOnce() -> u64) -> (u64, f64) {
    let t0 = Instant::now();
    let ops = f();
    (ops, t0.elapsed().as_secs_f64())
}

/// Work per pass: `full` at the measured size, a fiftieth for `--smoke`.
fn scaled(size: Size, full: usize) -> usize {
    match size {
        Size::Full => full,
        Size::Smoke => (full / 50).max(1),
    }
}

/// Everything the kernels need from the traced workloads.
pub struct KernelInputs<'a> {
    pub seed: u64,
    pub size: Size,
    /// The paper sweep's cells and a cache holding all their records.
    pub specs: &'a [RunSpec],
    pub warm: &'a TempCache,
}

/// Runs `pass` under a span named after its metric.
fn kernel(
    tracer: &mut Tracer,
    metric: &'static str,
    layer: &'static str,
    pass: impl FnMut() -> (u64, f64),
) -> Rate {
    let (ops, secs) = tracer.span(metric, layer, |_| fastest(pass));
    Rate { metric, ops, secs }
}

/// Runs every kernel, each under a span of its layer.
pub fn run_all(inputs: &KernelInputs, tracer: &mut Tracer) -> Result<Vec<Rate>, String> {
    let (seed, size) = (inputs.seed, inputs.size);
    let mut rates = vec![
        kernel(tracer, "sim.queue.mops", "sim", || queue(seed, size)),
        kernel(tracer, "mem.probe_hit.mops", "mem", || {
            probe_hits(seed, size)
        }),
        kernel(tracer, "mem.plru.mops", "mem", || plru(seed, size)),
        kernel(tracer, "mem.fill_evict.mops", "mem", || {
            fill_evict(seed, size)
        }),
        kernel(tracer, "noc.route.mops", "noc", || routes(size)),
    ];
    let walk = tracer.span("harness_walk", "core", |_| harness_walk(seed, size))?;
    rates.extend(walk.rates);
    rates.push(kernel(tracer, "check.visited_insert.mops", "check", || {
        visited_inserts(&walk.keys, size)
    }));
    let cells = distinct(inputs.specs);
    let mut miss = None;
    rates.push(kernel(tracer, "exp.cache_load.kops", "exp", || {
        cache_loads(inputs, &cells, size).unwrap_or_else(|e| {
            miss = Some(e);
            (0, 1.0)
        })
    }));
    if let Some(e) = miss {
        return Err(e);
    }
    rates.push(kernel(tracer, "exp.spec_fingerprint.kops", "exp", || {
        spec_fingerprints(inputs.specs, size)
    }));
    Ok(rates)
}

/// `EventQueue::push`/`pop` with 256 events pending: a pop, then a push
/// 1–8 cycles ahead (inside the 256-slot wheel) or, one time in
/// sixteen, 256–1023 cycles ahead (the overflow heap).
fn queue(seed: u64, size: Size) -> (u64, f64) {
    let mut rng = Rng::new(seed ^ 0x51);
    let delays: Vec<u64> = (0..4096)
        .map(|_| {
            if rng.below(16) == 0 {
                256 + rng.below(768)
            } else {
                1 + rng.below(8)
            }
        })
        .collect();
    let n = scaled(size, 2_000_000);
    timed(|| {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(256);
        for (ev, &delay) in delays[..256].iter().enumerate() {
            q.push(delay, ev as u64);
        }
        let mut sink = 0u64;
        for i in 0..n {
            let (t, ev) = q.pop().expect("256 events stay pending");
            sink ^= t ^ ev;
            q.push(t + delays[i & 4095], ev);
        }
        while let Some((t, ev)) = q.pop() {
            sink ^= t ^ ev;
        }
        black_box(sink);
        2 * n as u64 + 512
    })
}

/// The paper's L1 geometry: 32 KiB, 2 ways, 64-byte blocks.
fn l1_array() -> SetAssocCache<u8> {
    SetAssocCache::from_capacity(32 * 1024, 2)
}

/// `probe_way` + `touch_at` on a full L1 array; 99% of probes hit.
fn probe_hits(seed: u64, size: Size) -> (u64, f64) {
    let mut cache = l1_array();
    let lines = (cache.sets() * cache.ways()) as u64;
    for b in 0..lines {
        let WayLookup::Free { way } = cache.lookup_way(BlockAddr(b)) else {
            unreachable!("the array starts empty")
        };
        cache.insert_at(way, BlockAddr(b), 0, BlockData::zeroed());
    }
    let mut rng = Rng::new(seed ^ 0x52);
    let stream: Vec<BlockAddr> = (0..65_536)
        .map(|_| {
            if rng.below(100) == 0 {
                BlockAddr(lines + rng.below(1 << 20))
            } else {
                BlockAddr(rng.below(lines))
            }
        })
        .collect();
    let n = scaled(size, 8_000_000);
    timed(|| {
        let mut hits = 0u64;
        for i in 0..n {
            if let Some(w) = cache.probe_way(stream[i & 65_535]) {
                cache.touch_at(w);
                hits += 1;
            }
        }
        black_box(hits);
        n as u64
    })
}

/// `TreePlru::touch` then `victim` on 8-way sets.
fn plru(seed: u64, size: Size) -> (u64, f64) {
    let mut rng = Rng::new(seed ^ 0x53);
    let stream: Vec<(usize, usize)> = (0..65_536)
        .map(|_| (rng.below(64) as usize, rng.below(8) as usize))
        .collect();
    let n = scaled(size, 8_000_000);
    timed(|| {
        let mut sets = vec![TreePlru::new(); 64];
        let mut sink = 0usize;
        for i in 0..n {
            let (set, way) = stream[i & 65_535];
            sets[set].touch(8, way);
            sink = sink.wrapping_add(sets[set].victim(8));
        }
        black_box(sink);
        2 * n as u64
    })
}

/// `lookup_way` + `remove_at` + `insert_at` on an L1 array where every
/// access misses: a stream of never-seen blocks evicting the PLRU victim.
fn fill_evict(seed: u64, size: Size) -> (u64, f64) {
    let mut rng = Rng::new(seed ^ 0x54);
    let strides: Vec<u64> = (0..4096).map(|_| 1 + rng.below(7)).collect();
    let n = scaled(size, 2_000_000);
    timed(|| {
        let mut cache = l1_array();
        let mut next = 0u64;
        for i in 0..n {
            next += strides[i & 4095];
            let block = BlockAddr(next);
            let way = match cache.lookup_way(block) {
                WayLookup::Free { way } => way,
                WayLookup::Victim(w) => {
                    let way = w.way();
                    black_box(cache.remove_at(w));
                    way
                }
                WayLookup::Hit(_) => unreachable!("every block is new"),
            };
            cache.insert_at(way, block, 0, BlockData::zeroed());
        }
        n as u64
    })
}

/// `Mesh::route_links` and `latency` over every (source, destination)
/// pair, plus `link_id` over every pair of neighbours, on the 8- and
/// 16-node meshes of the storms.
fn routes(size: Size) -> (u64, f64) {
    let meshes: Vec<Mesh> = [8, 16]
        .into_iter()
        .map(|n| {
            let (w, h) = Mesh::dims_for(n);
            Mesh::with_paper_timing(w, h)
        })
        .collect();
    let passes = scaled(size, 5_000);
    timed(|| {
        let mut ops = 0u64;
        let mut sink = 0usize;
        for _ in 0..passes {
            for mesh in &meshes {
                let n = mesh.nodes();
                for s in 0..n {
                    for d in 0..n {
                        let (src, dst) = (NodeId(s), NodeId(d));
                        sink = sink.wrapping_add(mesh.route_links(src, dst).sum::<usize>());
                        sink = sink.wrapping_add(mesh.latency(src, dst) as usize);
                        if mesh.hops(src, dst) == 1 {
                            sink = sink.wrapping_add(mesh.link_id(src, dst));
                            ops += 1;
                        }
                        ops += 1;
                    }
                }
            }
        }
        black_box(sink);
        ops
    })
}

struct Walk {
    rates: Vec<Rate>,
    /// Every visited state's key, as the checker's visited set sees it.
    keys: Vec<(u128, u64)>,
}

/// Seeded random walks of the checker's Ghostwriter 2-core, 2-block,
/// 2-op space: each walk issues and delivers at random until every core
/// has spent its budget and the network drains. After each action it
/// takes the state fingerprint and re-checks the invariants, timing the
/// action, `System::fingerprint` and `check_swmr` + `check_ghostwriter`
/// separately.
fn harness_walk(seed: u64, size: Size) -> Result<Walk, String> {
    let spec = SweepSpec::new(ProtocolKind::Ghostwriter, 2, 2, 2);
    let alphabet = spec.alphabet();
    let root = System::new(spec.config());
    let walks = scaled(size, 1_500);
    let mut best = [(0u64, f64::INFINITY); 3];
    let mut keys = Vec::new();
    for pass in 0..PASSES {
        let mut rng = Rng::new(seed ^ 0x55);
        let mut totals = [(0u64, 0.0f64); 3];
        for _ in 0..walks {
            let mut sys = root.clone();
            let mut remaining = [spec.ops; 2];
            loop {
                let issuers: Vec<usize> = (0..2)
                    .filter(|&c| remaining[c] > 0 && sys.core_idle(c))
                    .collect();
                let channels = sys.channels();
                let choices = issuers.len() * alphabet.len() + channels.len();
                if choices == 0 {
                    break;
                }
                let pick = rng.below(choices as u64) as usize;
                let t0 = Instant::now();
                let stepped = if pick < issuers.len() * alphabet.len() {
                    let core = issuers[pick / alphabet.len()];
                    let step = alphabet[pick % alphabet.len()];
                    remaining[core] -= 1;
                    sys.issue(core, step.block, step.op)
                } else {
                    sys.deliver(channels[pick - issuers.len() * alphabet.len()])
                };
                let t1 = Instant::now();
                let fingerprint = sys.fingerprint();
                let t2 = Instant::now();
                let checked = sys.check_swmr().and_then(|()| sys.check_ghostwriter());
                let t3 = Instant::now();
                if let Err(v) = stepped.and(checked) {
                    return Err(format!("harness walk hit a violation: {v}"));
                }
                for (total, (a, b)) in totals.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                    total.0 += 1;
                    total.1 += (b - a).as_secs_f64();
                }
                if pass == 0 {
                    keys.push((
                        fingerprint,
                        ((remaining[0] as u64) << 4) | remaining[1] as u64,
                    ));
                }
            }
        }
        for (b, t) in best.iter_mut().zip(totals) {
            if t.1 < b.1 {
                *b = t;
            }
        }
    }
    let [step, fingerprint, invariants] = best;
    let rate = |metric, (ops, secs)| Rate { metric, ops, secs };
    Ok(Walk {
        rates: vec![
            rate("core.harness.step.mops", step),
            rate("core.harness.fingerprint.mops", fingerprint),
            rate("core.harness.invariants.mops", invariants),
        ],
        keys,
    })
}

/// Inserts of the walk's state keys into a fresh visited set (the
/// checker's `HashSet<(u128, u64)>`), repeatedly.
fn visited_inserts(keys: &[(u128, u64)], size: Size) -> (u64, f64) {
    let rounds = scaled(size, 20);
    timed(|| {
        let mut new = 0usize;
        for _ in 0..rounds {
            let mut visited: HashSet<(u128, u64)> = HashSet::new();
            for &k in keys {
                new += visited.insert(k) as usize;
            }
        }
        black_box(new);
        (rounds * keys.len()) as u64
    })
}

/// `ResultCache::load` hits on the warm paper-sweep cache.
fn cache_loads(inputs: &KernelInputs, cells: &[usize], size: Size) -> Result<(u64, f64), String> {
    let rounds = scaled(size, 5);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &i in cells {
            let spec = &inputs.specs[i];
            black_box(
                inputs
                    .warm
                    .cache
                    .load::<RunRecord>(spec.fingerprint())
                    .map_err(|m| format!("cache load of {} missed: {m:?}", spec.id))?,
            );
        }
    }
    Ok(((rounds * cells.len()) as u64, t0.elapsed().as_secs_f64()))
}

/// `RunSpec::fingerprint` over the paper sweep's cells.
fn spec_fingerprints(specs: &[RunSpec], size: Size) -> (u64, f64) {
    let rounds = scaled(size, 40);
    timed(|| {
        for _ in 0..rounds {
            for s in specs {
                black_box(s.fingerprint());
            }
        }
        (rounds * specs.len()) as u64
    })
}
