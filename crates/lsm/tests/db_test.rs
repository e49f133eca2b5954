//! End-to-end tests of the LSM engine: write → flush → compact → read,
//! merge operators, recovery, and I/O accounting.

use ldbpp_lsm::compress::Compression;
use ldbpp_lsm::db::{Db, DbOptions, KeySource};
use ldbpp_lsm::env::{DiskEnv, Env, MemEnv};
use ldbpp_lsm::ikey::ValueType;
use ldbpp_lsm::merge::{ConcatMerge, MergeOperator};
use ldbpp_lsm::write_batch::WriteBatch;
use std::ops::ControlFlow;
use std::sync::Arc;

fn tiny_opts() -> DbOptions {
    DbOptions {
        block_size: 512,
        write_buffer_size: 4 << 10,
        max_file_size: 2 << 10,
        base_level_bytes: 16 << 10,
        ..DbOptions::small()
    }
}

fn k(i: usize) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn v(i: usize) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat(i % 50)).into_bytes()
}

#[test]
fn put_get_small() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..100 {
        db.put(&k(i), &v(i)).unwrap();
    }
    for i in 0..100 {
        assert_eq!(db.get(&k(i)).unwrap().as_deref(), Some(v(i).as_slice()));
    }
    assert_eq!(db.get(b"missing").unwrap(), None);
}

#[test]
fn overwrite_returns_newest() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
    // Force through flush + compaction.
    db.flush().unwrap();
    db.put(b"k", b"v3").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v3"[..]));
}

#[test]
fn delete_hides_key_across_flushes() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"v").unwrap();
    db.flush().unwrap();
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    db.flush().unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
}

#[test]
fn large_load_builds_levels_and_reads_back() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    let n = 3000;
    for i in 0..n {
        db.put(&k(i), &v(i)).unwrap();
    }
    let counts = db.level_file_counts();
    let deeper: usize = counts[1..].iter().sum();
    assert!(
        deeper > 0,
        "compaction should populate deeper levels: {counts:?}"
    );
    for i in (0..n).step_by(37) {
        assert_eq!(
            db.get(&k(i)).unwrap().as_deref(),
            Some(v(i).as_slice()),
            "key {i}"
        );
    }
    let s = db.stats().snapshot();
    assert!(s.compactions > 0);
    assert!(s.flushes > 0);
    assert!(s.compaction_blocks_written > 0);
    assert!(s.wal_bytes_written > 0);
}

#[test]
fn updates_and_deletes_survive_compactions() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    let n = 1500;
    for i in 0..n {
        db.put(&k(i), &v(i)).unwrap();
    }
    // Update every 3rd, delete every 5th (delete wins where both apply).
    for i in (0..n).step_by(3) {
        db.put(&k(i), b"updated").unwrap();
    }
    for i in (0..n).step_by(5) {
        db.delete(&k(i)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..n {
        let got = db.get(&k(i)).unwrap();
        if i % 5 == 0 {
            assert_eq!(got, None, "key {i} deleted");
        } else if i % 3 == 0 {
            assert_eq!(got.as_deref(), Some(&b"updated"[..]), "key {i} updated");
        } else {
            assert_eq!(got.as_deref(), Some(v(i).as_slice()), "key {i} original");
        }
    }
}

#[test]
fn write_batch_is_atomic_and_ordered() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1");
    batch.put(b"b", b"2");
    batch.delete(b"a");
    let seq = db.write(&mut batch).unwrap();
    assert!(seq >= 1);
    assert_eq!(db.get(b"a").unwrap(), None, "later delete in batch wins");
    assert_eq!(db.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
    assert_eq!(db.last_sequence(), seq + 2);
}

#[test]
fn empty_batch_rejected() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    let mut batch = WriteBatch::new();
    assert!(db.write(&mut batch).is_err());
}

#[test]
fn merge_operands_fold_on_get() {
    let mut opts = tiny_opts();
    opts.merge_operator = Some(Arc::new(ConcatMerge));
    let db = Db::open_in_memory(opts).unwrap();
    db.merge(b"k", b"a").unwrap();
    db.merge(b"k", b"b").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"ab"[..]));
    db.flush().unwrap();
    db.merge(b"k", b"c").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"abc"[..]));
}

#[test]
fn merge_over_value_and_delete() {
    let mut opts = tiny_opts();
    opts.merge_operator = Some(Arc::new(ConcatMerge));
    let db = Db::open_in_memory(opts).unwrap();
    db.put(b"k", b"BASE").unwrap();
    db.merge(b"k", b"+1").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"BASE+1"[..]));
    db.delete(b"k").unwrap();
    db.merge(b"k", b"fresh").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"fresh"[..]));
}

#[test]
fn merge_fragments_compact_together() {
    let mut opts = tiny_opts();
    opts.merge_operator = Some(Arc::new(ConcatMerge));
    let db = Db::open_in_memory(opts).unwrap();
    // Interleave many keys so flushes and compactions happen, while one hot
    // key accumulates operands.
    for i in 0..2000 {
        db.put(&k(i), &v(i)).unwrap();
        if i % 10 == 0 {
            db.merge(b"hot", format!("[{i}]").as_bytes()).unwrap();
        }
    }
    let expected: String = (0..2000).step_by(10).map(|i| format!("[{i}]")).collect();
    assert_eq!(
        db.get(b"hot").unwrap().as_deref(),
        Some(expected.as_bytes())
    );
}

#[test]
fn fold_key_sources_order_and_early_stop() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"old").unwrap();
    db.flush().unwrap();
    db.put(b"k", b"new").unwrap();

    let mut sources = Vec::new();
    db.fold_key_sources(b"k", |src, entries| {
        sources.push((src, entries.to_vec()));
        ControlFlow::Continue(())
    })
    .unwrap();
    assert_eq!(sources.len(), 2);
    assert_eq!(sources[0].0, KeySource::Mem);
    assert_eq!(sources[0].1[0].1, b"new");
    assert!(matches!(
        sources[1].0,
        KeySource::L0File(_) | KeySource::Level(_)
    ));

    // Early stop sees only the memtable.
    let mut count = 0;
    db.fold_key_sources(b"k", |_, _| {
        count += 1;
        ControlFlow::Break(())
    })
    .unwrap();
    assert_eq!(count, 1);
}

#[test]
fn get_lite_detects_newer_versions_without_io() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..1200 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    // Nothing newer above a deep level for an untouched key at first: the
    // key lives at exactly one place, so checking above its level is false.
    let version = db.current_version();
    let deepest = version.deepest_populated();
    assert!(deepest >= 1);

    // Rewrite one key so a newer version sits in the memtable.
    db.put(&k(7), b"newer").unwrap();
    let below = KeySource::Level(deepest);
    assert!(
        db.get_lite(&k(7), below, &version),
        "memtable version detected"
    );
    assert!(
        !db.get_lite(&k(7), KeySource::Mem, &version),
        "nothing is newer than the memtable"
    );

    let s_before = db.stats().snapshot();
    let _ = db.get_lite(&k(7), below, &version);
    let s_after = db.stats().snapshot();
    assert_eq!(
        s_after.block_reads, s_before.block_reads,
        "GetLite must not read data blocks"
    );

    // Once a flush installs another version, levels of the old one no
    // longer bound what is newer: every answer becomes "maybe newer".
    let l1 = KeySource::Level(1);
    let quiet: Vec<usize> = (100..110)
        .filter(|&i| !db.get_lite(&k(i), l1, &version))
        .collect();
    assert!(!quiet.is_empty(), "untouched keys have nothing newer");
    db.flush().unwrap();
    for i in quiet {
        assert!(
            db.get_lite(&k(i), l1, &version),
            "key {i} judged in a replaced version"
        );
    }
}

#[test]
fn resolved_iter_scans_live_keys_in_order() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..800 {
        db.put(&k(i), &v(i)).unwrap();
    }
    for i in (0..800).step_by(7) {
        db.delete(&k(i)).unwrap();
    }
    db.put(&k(100), b"rewritten").unwrap();

    let mut it = db.resolved_iter().unwrap();
    it.seek_to_first();
    let mut seen = 0;
    let mut prev: Option<Vec<u8>> = None;
    while let Some((key, _seq, value)) = it.next_entry().unwrap() {
        if let Some(p) = &prev {
            assert!(p < &key, "keys must be strictly increasing");
        }
        let i: usize = std::str::from_utf8(&key).unwrap()[3..].parse().unwrap();
        assert_ne!(i % 7, 0, "deleted key {i} must not appear");
        if i == 100 {
            assert_eq!(value, b"rewritten");
        }
        prev = Some(key);
        seen += 1;
    }
    let expected = (0..800).filter(|i| i % 7 != 0).count();
    assert_eq!(seen, expected);
}

#[test]
fn resolved_iter_seek() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..300 {
        db.put(&k(i), &v(i)).unwrap();
    }
    let mut it = db.resolved_iter().unwrap();
    it.seek(&k(250));
    let (key, _, _) = it.next_entry().unwrap().unwrap();
    assert_eq!(key, k(250));
}

#[test]
fn source_iterators_cover_all_sources() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..2000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    let sources = db.source_iterators().unwrap();
    assert!(sources.len() >= 2);
    assert_eq!(sources[0].0, KeySource::Mem);
    // Every entry reachable via sources; count distinct user keys.
    let mut keys = std::collections::HashSet::new();
    for (_, mut it) in sources {
        it.seek_to_first();
        while it.valid() {
            let (uk, _, _) = ldbpp_lsm::ikey::parse_internal_key(it.key()).unwrap();
            keys.insert(uk.to_vec());
            it.next();
        }
    }
    assert_eq!(keys.len(), 2000);
}

#[test]
fn recovery_from_wal_only() {
    let env = MemEnv::new();
    {
        let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        // No flush: data lives only in WAL + memtable.
    }
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
}

#[test]
fn recovery_after_heavy_load() {
    let env = MemEnv::new();
    let n = 2500;
    {
        let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
        for i in 0..n {
            db.put(&k(i), &v(i)).unwrap();
        }
        for i in (0..n).step_by(10) {
            db.delete(&k(i)).unwrap();
        }
    }
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    for i in (0..n).step_by(23) {
        let got = db.get(&k(i)).unwrap();
        if i % 10 == 0 {
            assert_eq!(got, None);
        } else {
            assert_eq!(got.as_deref(), Some(v(i).as_slice()));
        }
    }
    let seq_before = db.last_sequence();
    db.put(b"post-recovery", b"ok").unwrap();
    assert!(db.last_sequence() > seq_before);
}

#[test]
fn recovery_preserves_merge_operands() {
    let env = MemEnv::new();
    let mut opts = tiny_opts();
    opts.merge_operator = Some(Arc::new(ConcatMerge));
    {
        let db = Db::open(env.clone(), "db", opts.clone()).unwrap();
        db.merge(b"k", b"a").unwrap();
        db.merge(b"k", b"b").unwrap();
    }
    let db = Db::open(env.clone(), "db", opts).unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"ab"[..]));
}

#[test]
fn disk_env_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ldbpp-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = DiskEnv::new();
    let name = dir.join("testdb");
    let name = name.to_str().unwrap();
    {
        let db = Db::open(env.clone(), name, tiny_opts()).unwrap();
        for i in 0..600 {
            db.put(&k(i), &v(i)).unwrap();
        }
    }
    {
        let db = Db::open(env.clone(), name, tiny_opts()).unwrap();
        for i in (0..600).step_by(41) {
            assert_eq!(db.get(&k(i)).unwrap().as_deref(), Some(v(i).as_slice()));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn obsolete_files_are_deleted() {
    let env = MemEnv::new();
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    for i in 0..3000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    // After compactions, the env must only hold live tables + current
    // log/manifest/CURRENT.
    let live: std::collections::HashSet<u64> = db
        .current_version()
        .files
        .iter()
        .flatten()
        .map(|f| f.number)
        .collect();
    let names = env.list("db").unwrap();
    let mut table_files = 0;
    for f in &names {
        if let Some(n) = f.strip_suffix(".ldb") {
            let num: u64 = n.parse().unwrap();
            assert!(live.contains(&num), "stale table file {f}");
            table_files += 1;
        }
    }
    assert_eq!(table_files, live.len());
    let logs = names.iter().filter(|f| f.ends_with(".log")).count();
    assert!(logs <= 1, "at most the active WAL may remain, found {logs}");
}

#[test]
fn wal_disabled_mode() {
    let mut opts = tiny_opts();
    opts.wal_enabled = false;
    let db = Db::open_in_memory(opts).unwrap();
    for i in 0..500 {
        db.put(&k(i), &v(i)).unwrap();
    }
    assert_eq!(db.get(&k(42)).unwrap().as_deref(), Some(v(42).as_slice()));
    assert_eq!(db.stats().snapshot().wal_bytes_written, 0);
}

#[test]
fn uncompressed_database_is_larger() {
    let load = |compression: Compression| {
        let mut opts = tiny_opts();
        opts.compression = compression;
        let db = Db::open_in_memory(opts).unwrap();
        for i in 0..1500 {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.flush().unwrap();
        db.table_bytes()
    };
    let snappy = load(Compression::Snaplite);
    let raw = load(Compression::None);
    assert!(
        snappy < raw,
        "compressed {snappy} should be smaller than raw {raw}"
    );
}

#[test]
fn block_cache_reduces_repeat_reads() {
    let mut opts = tiny_opts();
    opts.block_cache_bytes = 4 << 20;
    let db = Db::open_in_memory(opts).unwrap();
    for i in 0..1000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    let _ = db.get(&k(500)).unwrap();
    let s1 = db.stats().snapshot();
    let _ = db.get(&k(500)).unwrap();
    let s2 = db.stats().snapshot();
    assert_eq!(s2.block_reads, s1.block_reads);
    assert!(s2.cache_hits > s1.cache_hits);
}

/// A posting-list-style merge operator used to stress compaction ordering.
struct SetUnion;

impl MergeOperator for SetUnion {
    fn full_merge(
        &self,
        _k: &[u8],
        base: Option<&[u8]>,
        operands: &[&[u8]],
    ) -> ldbpp_common::Result<Vec<u8>> {
        let mut items: Vec<&[u8]> = Vec::new();
        if let Some(b) = base {
            items.extend(b.split(|c| *c == b',').filter(|s| !s.is_empty()));
        }
        for op in operands {
            items.extend(op.split(|c| *c == b',').filter(|s| !s.is_empty()));
        }
        items.sort();
        items.dedup();
        Ok(items.join(&b","[..]))
    }
    fn partial_merge(
        &self,
        k: &[u8],
        operands: &[&[u8]],
        _at_bottom: bool,
    ) -> ldbpp_common::Result<Vec<u8>> {
        self.full_merge(k, None, operands)
    }
}

#[test]
fn set_union_merge_is_exact_under_compaction() {
    let mut opts = tiny_opts();
    opts.merge_operator = Some(Arc::new(SetUnion));
    let db = Db::open_in_memory(opts).unwrap();
    let mut expected: Vec<Vec<String>> = vec![Vec::new(); 20];
    for i in 0..4000 {
        let key = format!("set{:02}", i % 20);
        let member = format!("m{i:05}");
        db.merge(key.as_bytes(), member.as_bytes()).unwrap();
        expected[i % 20].push(member);
        // Filler traffic to force flushes/compactions.
        db.put(&k(i), &v(i % 100)).unwrap();
    }
    for (s, want) in expected.iter_mut().enumerate() {
        want.sort();
        let key = format!("set{s:02}");
        let got = db.get(key.as_bytes()).unwrap().unwrap();
        let got: Vec<&str> = std::str::from_utf8(&got).unwrap().split(',').collect();
        assert_eq!(got.len(), want.len(), "set {s}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g, w, "set {s}");
        }
    }
}

#[test]
fn tombstones_disappear_at_base_level() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..1000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    for i in 0..1000 {
        db.delete(&k(i)).unwrap();
    }
    db.flush().unwrap();
    // Compact until quiescent; with everything deleted and tombstones
    // reaching the base level, the tree should shrink drastically.
    db.compact().unwrap();
    for i in (0..1000).step_by(97) {
        assert_eq!(db.get(&k(i)).unwrap(), None);
    }
    let version = db.current_version();
    let mut entries = 0u64;
    for files in &version.files {
        for f in files {
            entries += f.num_entries;
        }
    }
    assert!(
        entries < 2000,
        "most shadowed entries should be compacted away, left {entries}"
    );
}

#[test]
fn value_type_exposed_in_fold() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"v").unwrap();
    db.delete(b"k").unwrap();
    let mut newest: Option<ValueType> = None;
    db.fold_key_sources(b"k", |_, entries| {
        newest = Some(entries[0].0);
        ControlFlow::Break(())
    })
    .unwrap();
    assert_eq!(newest, Some(ValueType::Deletion));
}

#[test]
fn manual_compaction_mode_defers_work() {
    let mut opts = tiny_opts();
    opts.auto_compact = false;
    let db = Db::open_in_memory(opts).unwrap();
    for i in 0..3000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    // Without auto compaction, everything piles up in L0.
    let counts = db.level_file_counts();
    assert!(counts[0] > 4, "L0 should exceed the trigger: {counts:?}");
    assert_eq!(counts[1..].iter().sum::<usize>(), 0);
    assert_eq!(db.stats().snapshot().compactions, 0);

    // Reads remain correct even with a deep L0.
    assert_eq!(
        db.get(&k(1234)).unwrap().as_deref(),
        Some(v(1234).as_slice())
    );

    // Explicit compaction restores the leveled shape.
    db.compact().unwrap();
    let counts = db.level_file_counts();
    assert!(counts[0] <= 4, "L0 drained: {counts:?}");
    assert!(counts[1..].iter().sum::<usize>() > 0);
    assert!(db.stats().snapshot().compactions > 0);
    assert_eq!(
        db.get(&k(1234)).unwrap().as_deref(),
        Some(v(1234).as_slice())
    );
}

#[test]
fn snapshot_reads_see_the_past() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"v1").unwrap();
    let snap1 = db.snapshot_seq();
    db.put(b"k", b"v2").unwrap();
    db.delete(b"other").unwrap();
    let snap2 = db.snapshot_seq();
    db.put(b"k", b"v3").unwrap();

    assert_eq!(db.get_at(b"k", snap1).unwrap().as_deref(), Some(&b"v1"[..]));
    assert_eq!(db.get_at(b"k", snap2).unwrap().as_deref(), Some(&b"v2"[..]));
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v3"[..]));
    // A snapshot from before a key existed sees nothing.
    assert_eq!(db.get_at(b"k", 0).unwrap(), None);
}

#[test]
fn snapshot_reads_through_tombstones() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"k", b"alive").unwrap();
    let before_delete = db.snapshot_seq();
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    assert_eq!(
        db.get_at(b"k", before_delete).unwrap().as_deref(),
        Some(&b"alive"[..])
    );
}

#[test]
fn debug_summary_reports_shape() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    for i in 0..2000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    let summary = db.debug_summary();
    assert!(summary.contains("seq=2000"), "{summary}");
    assert!(
        summary.contains("L1") || summary.contains("L0"),
        "{summary}"
    );
    assert!(summary.contains("compactions="), "{summary}");
}

#[test]
fn pinned_snapshots_survive_heavy_compaction() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    // Epoch 1.
    for i in 0..400 {
        db.put(&k(i), format!("epoch1-{i}").as_bytes()).unwrap();
    }
    let snap = db.pin_snapshot();
    // Epochs 2..5: overwrite everything repeatedly, with flushes and
    // compactions churning the tree.
    for epoch in 2..=5 {
        for i in 0..400 {
            db.put(&k(i), format!("epoch{epoch}-{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact().unwrap();
    // The pinned snapshot still reads epoch-1 values exactly.
    for i in (0..400).step_by(13) {
        assert_eq!(
            db.get_at(&k(i), snap.sequence()).unwrap().as_deref(),
            Some(format!("epoch1-{i}").as_bytes()),
            "key {i}"
        );
        assert_eq!(
            db.get(&k(i)).unwrap().as_deref(),
            Some(format!("epoch5-{i}").as_bytes())
        );
    }

    // After unpinning, a major compaction reclaims the history.
    let before = db.table_bytes();
    drop(snap);
    db.major_compact().unwrap();
    let after = db.table_bytes();
    assert!(
        after < before,
        "unpinned history should be reclaimed: {before} -> {after}"
    );
}

#[test]
fn pinned_snapshot_preserves_deleted_keys() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"doomed", b"still-here").unwrap();
    let snap = db.pin_snapshot();
    db.delete(b"doomed").unwrap();
    for i in 0..1500 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    db.major_compact().unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None);
    assert_eq!(
        db.get_at(b"doomed", snap.sequence()).unwrap().as_deref(),
        Some(&b"still-here"[..]),
        "pinned snapshot must see through the tombstone"
    );
}

#[test]
fn multiple_snapshot_pins_refcount() {
    let db = Db::open_in_memory(tiny_opts()).unwrap();
    db.put(b"a", b"1").unwrap();
    let s1 = db.pin_snapshot();
    let s2 = db.pin_snapshot();
    assert_eq!(s1.sequence(), s2.sequence());
    drop(s1);
    // Still pinned through s2.
    db.put(b"a", b"2").unwrap();
    for i in 0..1000 {
        db.put(&k(i), &v(i)).unwrap();
    }
    db.flush().unwrap();
    db.major_compact().unwrap();
    assert_eq!(
        db.get_at(b"a", s2.sequence()).unwrap().as_deref(),
        Some(&b"1"[..])
    );
}
