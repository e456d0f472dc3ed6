//! Cache-correctness suite: byte-identical hits, fingerprint
//! sensitivity, `--no-cache` bypass, and corruption detection.

use std::fs;
use std::path::PathBuf;

use ghostwriter_core::{MachineConfig, Protocol};
use ghostwriter_exp::spec::SPEC_REVISION;
use ghostwriter_exp::{
    find_experiment, Engine, Fingerprint, Miss, ResultCache, RunKind, RunRecord, RunSpec, Scale,
    WorkloadSpec,
};
use ghostwriter_workloads::ScaleClass;

/// A unique scratch cache directory per test (no Date::now — the test
/// name keys it; cleaned before use so reruns start cold).
fn scratch(name: &str) -> ResultCache {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gw-cache-{name}"));
    let _ = fs::remove_dir_all(&dir);
    ResultCache::new(dir)
}

fn engine_with(cache: ResultCache, jobs: usize) -> Engine {
    let mut e = Engine::new(jobs);
    e.cache = cache;
    e
}

/// A cheap real cell (one small registry workload run).
fn cheap_spec(seed: u64) -> RunSpec {
    RunSpec {
        id: format!("cheap/{seed}"),
        kind: RunKind::Workload {
            workload: WorkloadSpec::registry("histogram", ScaleClass::Test, seed),
            config: MachineConfig::small(2, Protocol::Mesi),
            threads: 2,
            d: 0,
        },
    }
}

#[test]
fn hit_returns_byte_identical_payload() {
    let engine = engine_with(scratch("hit"), 1);
    let spec = cheap_spec(1);
    let (cold, log_cold) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log_cold.executed, 1);
    let path = engine.cache.path_of(spec.fingerprint());
    let file_cold = fs::read_to_string(&path).unwrap();

    let (warm, log_warm) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log_warm.cache_hits, 1);
    assert_eq!(log_warm.executed, 0);
    // The hit record round-trips to the exact bytes the miss produced,
    // and the cache file itself is untouched.
    assert_eq!(warm[0].canonical_text(), cold[0].canonical_text());
    assert_eq!(fs::read_to_string(&path).unwrap(), file_cold);
}

#[test]
fn fingerprint_changes_with_config_seed_and_revision() {
    let base = cheap_spec(1);
    // Seed.
    assert_ne!(base.fingerprint(), cheap_spec(2).fingerprint());
    // Any config knob (here: the protocol).
    let mut gw = base.clone();
    if let RunKind::Workload { config, .. } = &mut gw.kind {
        config.protocol = Protocol::ghostwriter();
    }
    assert_ne!(base.fingerprint(), gw.fingerprint());
    // Spec revision: the key embeds the global revision, so bumping it
    // must re-address every cached result.
    let key = base.cache_key();
    assert!(key.starts_with(&format!("rev={SPEC_REVISION}|")));
    let bumped = key.replacen(
        &format!("rev={SPEC_REVISION}|"),
        &format!("rev={}|", SPEC_REVISION + 1),
        1,
    );
    assert_ne!(
        Fingerprint::of_parts(["ghostwriter-exp", &key]),
        Fingerprint::of_parts(["ghostwriter-exp", &bumped]),
    );
}

#[test]
fn no_cache_bypasses_lookups_and_stores() {
    let mut engine = engine_with(scratch("nocache"), 1);
    engine.use_cache = false;
    let spec = cheap_spec(3);
    let (_, log) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log.executed, 1);
    assert!(engine.cache.is_empty(), "--no-cache must not store");

    // Populate the cache, then verify --no-cache still re-executes.
    engine.use_cache = true;
    engine.run(std::slice::from_ref(&spec));
    assert_eq!(engine.cache.len(), 1);
    engine.use_cache = false;
    let (_, log) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log.executed, 1, "--no-cache must not read hits");
    assert_eq!(log.cache_hits, 0);
}

#[test]
fn corrupted_entries_are_detected_and_rerun() {
    let engine = engine_with(scratch("corrupt"), 1);
    let spec = cheap_spec(4);
    let (cold, _) = engine.run(std::slice::from_ref(&spec));
    let path = engine.cache.path_of(spec.fingerprint());

    // Flip one digit inside a counter value: still valid JSON, wrong
    // checksum.
    let text = fs::read_to_string(&path).unwrap();
    let needle = "\"cycles\": ";
    let pos = text.find(needle).unwrap() + needle.len();
    let mut bytes = text.into_bytes();
    bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
    fs::write(&path, &bytes).unwrap();

    match engine.cache.load::<RunRecord>(spec.fingerprint()) {
        Err(Miss::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
        other => panic!("tampered entry must be a corrupt miss, got {other:?}"),
    }

    // The engine treats it as a miss, re-runs, and repairs the entry.
    let (again, log) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log.executed, 1);
    assert_eq!(log.corrupt, 1);
    assert_eq!(again[0].canonical_text(), cold[0].canonical_text());
    let (warm, log) = engine.run(std::slice::from_ref(&spec));
    assert_eq!(log.cache_hits, 1, "repaired entry must hit again");
    assert_eq!(warm[0].canonical_text(), cold[0].canonical_text());
}

#[test]
fn truncated_entries_are_corrupt_misses() {
    let engine = engine_with(scratch("truncate"), 1);
    let spec = cheap_spec(5);
    engine.run(std::slice::from_ref(&spec));
    let path = engine.cache.path_of(spec.fingerprint());
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(matches!(
        engine.cache.load::<RunRecord>(spec.fingerprint()),
        Err(Miss::Corrupt(_))
    ));
}

#[test]
fn wrong_fingerprint_file_is_rejected() {
    // An entry stored under fingerprint A must not satisfy a lookup for
    // fingerprint B even if someone renames the file.
    let engine = engine_with(scratch("rename"), 1);
    let a = cheap_spec(6);
    let b = cheap_spec(7);
    engine.run(std::slice::from_ref(&a));
    fs::rename(
        engine.cache.path_of(a.fingerprint()),
        engine.cache.path_of(b.fingerprint()),
    )
    .unwrap();
    match engine.cache.load::<RunRecord>(b.fingerprint()) {
        Err(Miss::Corrupt(why)) => assert!(why.contains("fingerprint"), "{why}"),
        other => panic!("expected fingerprint mismatch, got {other:?}"),
    }
}

#[test]
fn dedup_executes_shared_cells_once() {
    let engine = engine_with(scratch("dedup"), 4);
    // Same cell under three different labels + one distinct cell.
    let mut s1 = cheap_spec(8);
    let mut s2 = cheap_spec(8);
    let mut s3 = cheap_spec(8);
    s1.id = "a".into();
    s2.id = "b".into();
    s3.id = "c".into();
    let other = cheap_spec(9);
    let specs = vec![s1, other.clone(), s2, s3];
    let (records, log) = engine.run(&specs);
    assert_eq!(log.deduped, 2);
    assert_eq!(log.executed, 2, "one run per distinct fingerprint");
    assert_eq!(records.len(), 4, "records still align with the spec list");
    assert_eq!(records[0].canonical_text(), records[2].canonical_text());
    assert_eq!(records[2].canonical_text(), records[3].canonical_text());
    assert_ne!(records[0].canonical_text(), records[1].canonical_text());
}

#[test]
fn clean_empties_the_cache() {
    let engine = engine_with(scratch("clean"), 1);
    engine.run(&[cheap_spec(10), cheap_spec(11)]);
    assert_eq!(engine.cache.len(), 2);
    assert_eq!(engine.cache.clean().unwrap(), 2);
    assert!(engine.cache.is_empty());
}

#[test]
fn records_missing_a_counter_are_misses() {
    // A cache file as written before `wb_elisions`, `clean_forwards` and
    // the fault counters were serialised: the protocol ladder's
    // histogram/moesi smoke cell, whose record carries no `wb_elisions`
    // at all. Its cache key is unchanged, so the lookup finds the file;
    // the strict reader must make it a miss, never a record with the
    // missing counters zeroed.
    let spec = find_experiment("protocol_ladder")
        .unwrap()
        .spec(Scale::Smoke);
    let cell = &spec.runs[spec.index_of("histogram/moesi")];
    let cache = scratch("stale");
    fs::create_dir_all(cache.dir()).unwrap();
    fs::write(
        cache.path_of(cell.fingerprint()),
        include_str!("fixtures/stale_ladder_record.json"),
    )
    .unwrap();
    match cache.load::<RunRecord>(cell.fingerprint()) {
        Err(Miss::Corrupt(why)) => assert!(why.contains("wb_elisions"), "{why}"),
        other => panic!("a record missing counters must be a miss, got {other:?}"),
    }

    // The engine re-runs the cell, and the fresh record has the
    // elisions the stale one lost.
    let engine = engine_with(cache, 1);
    let (records, log) = engine.run(std::slice::from_ref(cell));
    assert_eq!((log.executed, log.corrupt), (1, 1));
    assert!(records[0].stats.wb_elisions > 0);
}
