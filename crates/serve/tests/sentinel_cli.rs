//! Integration tests for the `repro sentinel` CLI: the dogfooded
//! green/green/red contract (two clean `repro all` runs build a
//! baseline, an env-degraded third run turns the audit red with a named
//! metric and a change-point), plus `record --from` (filed under its
//! manifest's tool), `report`, `watch`, `clear`, and corrupt-record
//! tolerance through the binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_root(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("repro-sentinel-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Outcome {
    success: bool,
    stdout: String,
    stderr: String,
}

fn run(cmd: &mut Command) -> Outcome {
    let output = cmd.output().expect("binary runs");
    Outcome {
        success: output.status.success(),
        stdout: String::from_utf8(output.stdout).unwrap(),
        stderr: String::from_utf8(output.stderr).unwrap(),
    }
}

/// One `repro all` into its own artifact dir, recording into `sdir`;
/// `slowdown_ms` arms the deterministic regression injection.
fn repro_all(sdir: &Path, out: &Path, slowdown_ms: Option<u64>) -> Outcome {
    let mut cmd = repro();
    cmd.args(["all", "--jobs", "4", "--seed", "42", "--no-cache"])
        .args(["--out", out.to_str().unwrap()])
        .args(["--sentinel-dir", sdir.to_str().unwrap()])
        .env_remove("REPRO_SLOWDOWN_MS");
    if let Some(ms) = slowdown_ms {
        cmd.env("REPRO_SLOWDOWN_MS", ms.to_string());
    }
    run(&mut cmd)
}

fn audit(sdir: &Path) -> Outcome {
    run(repro()
        .args(["sentinel", "audit", "--min-history", "2"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]))
}

#[test]
fn green_green_red_through_the_binary() {
    let root = temp_root("ggr");
    let sdir = root.join("history");

    // Run 1 (clean): records itself, audit is warm-up green.
    let one = repro_all(&sdir, &root.join("out1"), None);
    assert!(one.success, "{}", one.stderr);
    assert!(
        one.stderr.contains("sentinel: recorded run #1"),
        "repro all auto-records:\n{}",
        one.stderr
    );
    let verdict = audit(&sdir);
    assert!(
        verdict.success,
        "audit 1 must be green:\n{}",
        verdict.stdout
    );
    assert!(
        verdict.stdout.contains("verdict: warm-up"),
        "{}",
        verdict.stdout
    );

    // Run 2 (clean): one prior, still below min_history, still green.
    let two = repro_all(&sdir, &root.join("out2"), None);
    assert!(two.success, "{}", two.stderr);
    let verdict = audit(&sdir);
    assert!(
        verdict.success,
        "audit 2 must be green:\n{}",
        verdict.stdout
    );
    assert!(
        verdict.stdout.contains("verdict: warm-up"),
        "{}",
        verdict.stdout
    );

    // Run 3 (degraded): REPRO_SLOWDOWN_MS injects a deterministic
    // slowdown into every experiment. The run itself succeeds — the
    // *audit* is what turns red, names the metric, and reports the
    // change-point at the audited run (index 2 of the series).
    let three = repro_all(&sdir, &root.join("out3"), Some(250));
    assert!(three.success, "{}", three.stderr);
    let verdict = audit(&sdir);
    assert!(
        !verdict.success,
        "audit 3 must exit non-zero:\n{}",
        verdict.stdout
    );
    assert!(
        verdict.stdout.contains("verdict: REGRESSION in"),
        "{}",
        verdict.stdout
    );
    assert!(
        verdict.stdout.contains("total_wall_secs"),
        "the headline metric is named:\n{}",
        verdict.stdout
    );
    assert!(
        verdict.stdout.contains("change-point @ 2"),
        "the online detector places the shift:\n{}",
        verdict.stdout
    );

    // `report` renders the full history with the change-point marked.
    let report = run(repro()
        .args(["sentinel", "report", "--min-history", "2"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(report.success, "{}", report.stderr);
    assert!(
        report.stdout.contains("total_wall_secs"),
        "{}",
        report.stdout
    );
    assert!(report.stdout.contains("change-point"), "{}", report.stdout);

    // `clear` empties the history (and only the history), after which
    // the audit has nothing to say.
    let clear = run(repro()
        .args(["sentinel", "clear"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(clear.success, "{}", clear.stderr);
    assert!(
        clear.stdout.contains("removed 3 records"),
        "{}",
        clear.stdout
    );
    let verdict = audit(&sdir);
    assert!(verdict.success);
    assert!(
        verdict.stdout.contains("history is empty"),
        "{}",
        verdict.stdout
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn record_from_manifest_and_report() {
    let root = temp_root("record");
    let sdir = root.join("history");
    let out = root.join("out");

    // Produce a manifest without auto-recording, then ingest it
    // explicitly.
    let all = run(repro()
        .args([
            "all",
            "--jobs",
            "4",
            "--seed",
            "7",
            "--no-cache",
            "--no-sentinel",
        ])
        .args(["--out", out.to_str().unwrap()])
        .env_remove("REPRO_SLOWDOWN_MS"));
    assert!(all.success, "{}", all.stderr);
    assert!(
        !all.stderr.contains("sentinel: recorded"),
        "--no-sentinel suppresses auto-record:\n{}",
        all.stderr
    );

    let rec = run(repro()
        .args(["sentinel", "record"])
        .args(["--from", out.to_str().unwrap()])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(rec.success, "{}", rec.stderr);
    assert!(rec.stdout.contains("recorded run #1"), "{}", rec.stdout);

    // A missing manifest is an error, not a silent empty record.
    let bad = run(repro()
        .args(["sentinel", "record"])
        .args(["--from", root.join("nope").to_str().unwrap()])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(!bad.success);

    let report = run(repro()
        .args(["sentinel", "report"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(report.success, "{}", report.stderr);
    assert!(
        report.stdout.contains("total_wall_secs"),
        "{}",
        report.stdout
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn record_files_a_manifest_under_its_tools_kind() {
    let root = temp_root("kind");
    let sdir = root.join("history");
    let manifests = [
        ("bench", "bench", "serve_throughput/hot_text"),
        ("repro", "quick", "T1"),
    ];
    for (tool, scale, experiment) in manifests {
        let mut manifest = telemetry::RunManifest::new(tool, "0.1.0", 0, scale);
        manifest.push_experiment(experiment, 1e-5, 0);
        let file = root.join(format!("{tool}.json"));
        std::fs::write(&file, manifest.to_json().pretty()).unwrap();
        let rec = run(repro()
            .args(["sentinel", "record"])
            .args(["--from", file.to_str().unwrap()])
            .args(["--sentinel-dir", sdir.to_str().unwrap()]));
        assert!(rec.success, "{}", rec.stderr);
    }

    let report = run(repro()
        .args(["sentinel", "report"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(report.success, "{}", report.stderr);
    for population in [
        "population kind=bench scale=bench workload=all (1 run(s))",
        "population kind=repro-all scale=quick workload=all (1 run(s))",
    ] {
        assert!(report.stdout.contains(population), "{}", report.stdout);
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watch_audits_records_that_arrive_while_it_runs() {
    let root = temp_root("watch");
    let sdir = root.join("history");
    let store = sentinel::HistoryStore::new(&sdir);
    let mk = |wall: f64| {
        let mut rec = sentinel::RunRecord::new("repro-all", "repro", "0.1.0", 42, "quick");
        rec.push_metric("total_wall_secs", wall).unwrap();
        rec
    };
    store.append(&mk(12.0)).unwrap();
    store.append(&mk(12.4)).unwrap();

    // Nothing new lands: a bounded watch exits green.
    let idle = run(repro()
        .args(["sentinel", "watch", "--min-history", "2"])
        .args(["--iterations", "2", "--poll-ms", "20"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()]));
    assert!(idle.success, "{}", idle.stderr);
    assert!(idle.stderr.contains("sentinel watch"), "{}", idle.stderr);

    // A degraded record appended while the watcher polls turns it red.
    let child = repro()
        .args(["sentinel", "watch", "--min-history", "2"])
        .args(["--iterations", "40", "--poll-ms", "50"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("watch spawns");
    // Give the watcher time to seed its cursor from the existing
    // history before the regression lands.
    std::thread::sleep(std::time::Duration::from_millis(500));
    store.append(&mk(30.0)).unwrap();
    let output = child.wait_with_output().expect("watch exits");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        !output.status.success(),
        "watch exits non-zero after a regression:\n{stdout}"
    );
    assert!(
        stdout.contains("verdict: REGRESSION in total_wall_secs"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watch_exits_cleanly_when_the_history_directory_disappears() {
    let root = temp_root("gone");
    let sdir = root.join("history");
    let store = sentinel::HistoryStore::new(&sdir);
    let mut rec = sentinel::RunRecord::new("repro-all", "repro", "0.1.0", 42, "quick");
    rec.push_metric("total_wall_secs", 12.0).unwrap();
    store.append(&rec).unwrap();

    // An unbounded watch over an existing history; deleting the
    // directory mid-watch must end the process with a clear error, not
    // leave it polling an empty void forever.
    let child = repro()
        .args(["sentinel", "watch", "--min-history", "2"])
        .args(["--poll-ms", "20"])
        .args(["--sentinel-dir", sdir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("watch spawns");
    std::thread::sleep(std::time::Duration::from_millis(300));
    std::fs::remove_dir_all(&sdir).unwrap();
    let started = std::time::Instant::now();
    let output = child.wait_with_output().expect("watch exits");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "watch must notice the deleted directory promptly"
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        !output.status.success(),
        "watch exits non-zero when its history vanishes:\n{stderr}"
    );
    assert!(
        stderr.contains("history directory") && stderr.contains("disappeared"),
        "{stderr}"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn audit_tolerates_a_torn_record() {
    let root = temp_root("torn");
    let sdir = root.join("history");
    let store = sentinel::HistoryStore::new(&sdir);
    let mut rec = sentinel::RunRecord::new("repro-all", "repro", "0.1.0", 42, "quick");
    rec.push_metric("total_wall_secs", 12.0).unwrap();
    store.append(&rec).unwrap();
    let whole = rec.encode().unwrap();
    std::fs::write(sdir.join("00000002.rec"), &whole[..whole.len() / 2]).unwrap();

    let verdict = audit(&sdir);
    assert!(verdict.success, "{}", verdict.stdout);
    assert!(
        verdict.stderr.contains("skipped 1 corrupt record file(s)"),
        "{}",
        verdict.stderr
    );

    let _ = std::fs::remove_dir_all(&root);
}
