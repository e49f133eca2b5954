//! End-to-end test of the `ldbpp_tool` inspection CLI binary.

use leveldbpp::{Db, DbOptions, DiskEnv, Document, IndexKind, SecondaryDb, Value};
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldbpp_tool"))
}

#[test]
fn tool_inspects_a_real_database() {
    let dir = std::env::temp_dir().join(format!("ldbpp-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().unwrap().to_string();

    // Build a small database on disk.
    {
        let db = SecondaryDb::open(
            DiskEnv::new(),
            &db_path,
            leveldbpp::SecondaryDbOptions {
                base: DbOptions::small(),
                ..Default::default()
            },
            &[("UserID", IndexKind::Embedded)],
        )
        .unwrap();
        for i in 0..300usize {
            let mut doc = Document::new();
            doc.set("UserID", Value::str(format!("u{}", i % 4)))
                .set("N", Value::Int(i as i64));
            db.put(format!("rec{i:05}"), &doc).unwrap();
        }
        db.flush().unwrap();
    }

    // stats
    let out = tool().args(["stats", &db_path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("seq=300"), "{stdout}");

    // tables — shows levels, ranges and the UserID zone maps.
    let out = tool().args(["tables", &db_path]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rec00000"), "{stdout}");
    assert!(stdout.contains("UserID:"), "{stdout}");

    // get hit and miss.
    let out = tool().args(["get", &db_path, "rec00042"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"N\":42"));
    let out = tool().args(["get", &db_path, "missing"]).output().unwrap();
    assert!(!out.status.success());

    // scan with prefix and limit.
    let out = tool()
        .args(["scan", &db_path, "rec0001", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
    assert!(stdout.starts_with("rec00010"));

    // Refuses to touch a non-database directory (and must not create one).
    let empty = dir.join("not-a-db");
    std::fs::create_dir_all(&empty).unwrap();
    let out = tool()
        .args(["stats", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        !empty.join("CURRENT").exists(),
        "tool must not initialize state"
    );

    // Bad usage exits with code 2.
    let out = tool().output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).unwrap();
    // Silence unused-import lint for Db (the facade re-export is the API
    // under test elsewhere).
    let _ = std::any::type_name::<Db>();
}

#[test]
fn repair_cli_salvages_and_reports() {
    let dir = std::env::temp_dir().join(format!("ldbpp-repair-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().unwrap().to_string();

    {
        let db = Db::open(DiskEnv::new(), &db_path, DbOptions::small()).unwrap();
        for i in 0..200usize {
            db.put(
                format!("k{i:05}").as_bytes(),
                format!("v{i}-{}", "x".repeat(40)).as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
    }

    // Clean database: exit 0 and an explicit verdict.
    let out = tool().args(["repair", &db_path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok: database is clean"));

    // Corrupt a data block: repair must quarantine the damaged original,
    // exit non-zero, and leave a database that re-opens clean.
    let table = std::fs::read_dir(&db_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".ldb"))
        .expect("no table file on disk")
        .path();
    let mut data = std::fs::read(&table).unwrap();
    data[32] ^= 0xff;
    std::fs::write(&table, &data).unwrap();
    let out = tool().args(["repair", &db_path]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quarantined: lost/"), "{stdout}");
    assert!(
        db_dir.join("lost").read_dir().unwrap().next().is_some(),
        "quarantine directory is empty"
    );
    assert_eq!(index_dir_logs(&db_dir), Vec::<std::path::PathBuf>::new());

    // The repaired tree is clean: a second repair finds nothing wrong.
    let out = tool().args(["repair", &db_path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Surviving records are served through the normal read path.
    let out = tool().args(["get", &db_path, "k00199"]).output().unwrap();
    assert!(out.status.success(), "survivor key unreadable after repair");

    // Refuses directories that hold no database files at all.
    let empty = dir.join("not-a-db");
    std::fs::create_dir_all(&empty).unwrap();
    let out = tool()
        .args(["repair", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Bad usage exits with code 2.
    let out = tool().args(["repair"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Log files inside the stand-alone index directories of a sharded root.
/// A fed index tree keeps no log of its own, so inspecting or repairing
/// one must never leave one behind.
fn index_dir_logs(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let entries = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect::<Vec<_>>()
    };
    entries(root)
        .into_iter()
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            p.is_dir() && name.starts_with("shard-") && name.contains("_idx_")
        })
        .flat_map(|dir| entries(&dir))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect()
}

#[test]
fn tool_check_and_repair_iterate_shards() {
    let dir = std::env::temp_dir().join(format!("ldbpp-shard-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().unwrap().to_string();

    // Build a 2-shard database on disk, with a stand-alone index so the
    // tool has `shard-i_idx_*` engines to iterate too.
    {
        let db = SecondaryDb::open(
            DiskEnv::new(),
            &db_path,
            leveldbpp::SecondaryDbOptions {
                base: DbOptions::small(),
                shards: 2,
                ..Default::default()
            },
            &[("UserID", IndexKind::CompositeStandalone)],
        )
        .unwrap();
        for i in 0..200usize {
            let mut doc = Document::new();
            doc.set("UserID", Value::str(format!("u{}", i % 4)))
                .set("N", Value::Int(i as i64));
            db.put(format!("rec{i:05}"), &doc).unwrap();
        }
        db.flush().unwrap();
    }
    assert!(db_dir.join("LAYOUT").exists());

    // `check` on the root: per-shard lines plus the aggregate, exit 0.
    let out = tool().args(["check", &db_path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shard-0: clean"), "{stdout}");
    assert!(stdout.contains("shard-1: clean"), "{stdout}");
    assert!(stdout.contains("shard-0_idx_UserID: clean"), "{stdout}");
    assert!(stdout.contains("shard-1_idx_UserID: clean"), "{stdout}");
    assert!(stdout.contains("total: 0 violation(s)"), "{stdout}");
    assert!(stdout.contains("ok: database is clean"), "{stdout}");
    assert_eq!(index_dir_logs(&db_dir), Vec::<std::path::PathBuf>::new());

    // `stats` on the root points at the shard directories instead.
    let out = tool().args(["stats", &db_path]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("sharded database root"));
    let shard0 = db_dir.join("shard-0");
    let out = tool()
        .args(["stats", shard0.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Corrupt one table file in shard-1 only: `check` must attribute the
    // damage to shard-1 and keep reporting shard-0 clean (confinement).
    let table = std::fs::read_dir(db_dir.join("shard-1"))
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".ldb"))
        .expect("no table file in shard-1")
        .path();
    let full = std::fs::read(&table).unwrap();
    std::fs::write(&table, &full[..64]).unwrap();
    let out = tool().args(["check", &db_path]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shard-0: clean"), "{stdout}");
    assert!(stdout.contains("shard-1: 2 violation(s)"), "{stdout}");
    assert!(stdout.contains("shard-1:   [FileSize]"), "{stdout}");

    // `repair` iterates every engine: shard-1 quarantines the torn table,
    // every other engine reports clean, and the aggregate names the one
    // dirty engine. Exit code 1, same contract as single-engine repair.
    let out = tool().args(["repair", &db_path]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shard-1: quarantined: lost/"), "{stdout}");
    assert!(
        stdout.contains("total: 1 of 4 engine(s) needed salvage or stayed dirty"),
        "{stdout}"
    );
    assert!(
        db_dir
            .join("shard-1")
            .join("lost")
            .read_dir()
            .unwrap()
            .next()
            .is_some(),
        "quarantine directory is empty"
    );
    assert_eq!(index_dir_logs(&db_dir), Vec::<std::path::PathBuf>::new());

    // After salvage the whole tree is clean again: repair exits 0, and the
    // surviving records on the undamaged shard are all intact.
    let out = tool().args(["repair", &db_path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok: database is clean"));
    let out = tool().args(["check", &db_path]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(index_dir_logs(&db_dir), Vec::<std::path::PathBuf>::new());

    // The repaired database opens through the facade, and LOOKUP finds
    // exactly the records that survived.
    let db = SecondaryDb::open(
        DiskEnv::new(),
        &db_path,
        leveldbpp::SecondaryDbOptions {
            base: DbOptions::small(),
            shards: 2,
            ..Default::default()
        },
        &[("UserID", IndexKind::CompositeStandalone)],
    )
    .unwrap();
    let survivors: Vec<usize> = (0..200)
        .filter(|i| db.get(format!("rec{i:05}")).unwrap().is_some())
        .collect();
    let on_shard_0 = (0..200).filter(|i| db.shard_of(format!("rec{i:05}")) == 0);
    assert!(
        on_shard_0.clone().count() > 0 && on_shard_0.clone().all(|i| survivors.contains(&i)),
        "shard-0 was undamaged: {survivors:?}"
    );
    for g in 0..4 {
        let mut got: Vec<String> = db
            .lookup("UserID", &Value::str(format!("u{g}")), None)
            .unwrap()
            .into_iter()
            .map(|h| String::from_utf8(h.key).unwrap())
            .collect();
        got.sort();
        let expect: Vec<String> = survivors
            .iter()
            .filter(|i| *i % 4 == g)
            .map(|i| format!("rec{i:05}"))
            .collect();
        assert_eq!(got, expect, "LOOKUP u{g} after repair");
    }
    drop(db);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_cli_diagnoses_databases() {
    let dir = std::env::temp_dir().join(format!("ldbpp-check-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().unwrap().to_string();

    {
        let db = Db::open(DiskEnv::new(), &db_path, DbOptions::small()).unwrap();
        for i in 0..200usize {
            db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
    }

    let check = || {
        let mut cmd = tool();
        cmd.arg("check");
        cmd
    };

    // Healthy database: exit 0, "clean" verdict.
    let out = check().arg(&db_path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // Truncate a live table file (an orphan would be garbage-collected by
    // recovery at open; torn tables are not): exit 1, diagnostic names it.
    let table = std::fs::read_dir(&db_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".ldb"))
        .expect("no table file on disk")
        .path();
    let full = std::fs::read(&table).unwrap();
    std::fs::write(&table, &full[..64]).unwrap();
    let out = check().arg(&db_path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[FileSize]"), "{stdout}");
    assert!(
        stdout.contains(table.file_name().unwrap().to_str().unwrap()),
        "{stdout}"
    );

    // Refuses non-database directories without initializing them.
    let empty = dir.join("not-a-db");
    std::fs::create_dir_all(&empty).unwrap();
    let out = check().arg(empty.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!empty.join("CURRENT").exists());

    // Bad usage exits with code 2.
    let out = check().output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).unwrap();
}
