//! Integration tests for the `polysi` CLI binary, exercising the public
//! text-format + checker path a downstream user would script against.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polysi"))
}

#[test]
fn demo_emits_parseable_history_and_violation() {
    let out = bin().arg("demo").output().expect("run demo");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# verdict: VIOLATION (long fork)"));
    // The emitted history parses back.
    let body: String = text.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n");
    polysi::history::codec::decode(&body).expect("demo output is valid history text");
    // `check` rejects it with exit 1 (violation) specifically — exit 2
    // would be a parse error — whole-history and sharded alike.
    let dir = std::env::temp_dir().join("polysi-cli-test-demo");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.txt");
    std::fs::write(&path, body).unwrap();
    for extra in [&[][..], &["--shards", "auto"][..]] {
        let out = bin().arg("check").arg(&path).args(extra).output().expect("run check");
        assert_eq!(out.status.code(), Some(1), "check {extra:?} on the demo history");
    }
}

#[test]
fn check_accepts_valid_history() {
    let dir = std::env::temp_dir().join("polysi-cli-test-ok");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ok.txt");
    std::fs::write(&path, "session\nbegin\nw 1 10\ncommit\nbegin\nr 1 10\ncommit\n").unwrap();
    let out = bin().arg("check").arg(&path).output().expect("run check");
    assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
}

#[test]
fn check_rejects_lost_update_with_exit_code_and_dot() {
    let dir = std::env::temp_dir().join("polysi-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    std::fs::write(
        &path,
        "session\nbegin\nw 1 10\ncommit\nsession\nbegin\nr 1 10\nw 1 11\ncommit\n\
         session\nbegin\nr 1 10\nw 1 12\ncommit\n",
    )
    .unwrap();
    let dot = dir.join("bad.dot");
    let out = bin().arg("check").arg(&path).arg("--dot").arg(&dot).output().expect("run check");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lost update"));
    let rendered = std::fs::read_to_string(&dot).expect("dot written");
    assert!(rendered.starts_with("digraph"));
}

#[test]
fn stats_prints_counts() {
    let dir = std::env::temp_dir().join("polysi-cli-test-stats");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("h.txt");
    std::fs::write(&path, "session\nbegin\nw 1 10\nr 2 0\ncommit\n").unwrap();
    let out = bin().arg("stats").arg(&path).output().expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 txns"), "{text}");
}

/// The `tests/fixtures/` regression corpus: known histories with known
/// verdicts, exercised through the public CLI exactly as a user would.
/// Each entry is (file, expected exit code, required stdout substring).
/// (That no mode changes a fixture's verdict is the mode matrix's job,
/// `tests/conformance.rs`.)
#[test]
fn fixture_corpus_has_stable_verdicts() {
    let fixtures: [(&str, i32, &str); 24] = [
        ("long_fork.txt", 1, "long fork"),
        ("lost_update.txt", 1, "lost update"),
        ("write_skew.txt", 0, "OK"),
        ("aborted_read.txt", 1, "aborted read"),
        ("future_read.txt", 1, "future read"),
        ("serializable.txt", 0, "OK"),
        ("shard_disjoint_components.txt", 0, "OK"),
        ("shard_component_lost_update.txt", 1, "lost update"),
        ("shard_cross_session_fallback.txt", 0, "OK"),
        ("ser_write_skew_chain.txt", 0, "OK"),
        ("prune_so_chain_lost_update.txt", 1, "lost update"),
        ("prune_so_chain_clean.txt", 0, "OK"),
        ("solver_stress_lattice.txt", 0, "OK"),
        ("solver_stress_clique.txt", 0, "OK"),
        ("late_arriving_anomaly.txt", 1, "long fork"),
        ("checkpoint_flip.txt", 1, "lost update"),
        ("session_braid.txt", 1, "lost update"),
        ("monolithic_session.txt", 1, "lost update"),
        ("settled_prefix_late_anomaly.txt", 1, "lost update"),
        ("watermark_straddle_anomaly.txt", 1, "lost update"),
        ("duplicate_delivery_lost_update.txt", 1, "lost update"),
        ("stalled_session_long_fork.txt", 1, "long fork"),
        ("fenced_value.txt", 0, "OK"),
        ("fenced_init.txt", 0, "OK"),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, expected_code, needle) in fixtures {
        let out = bin().arg("check").arg(dir.join(file)).output().expect("run check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(expected_code),
            "{file}: wrong exit code\nstdout: {stdout}"
        );
        assert!(stdout.contains(needle), "{file}: missing {needle:?} in output\n{stdout}");
    }
}

/// `--stream` replays a history as a session-ordered stream with
/// periodic checkpoints: verdicts and exit codes match the batch run, the
/// streaming fixtures flip from accept to reject at the tail, and the
/// rejection reports the first-violation op index.
#[test]
fn stream_flag_replays_with_checkpoints() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // The checkpoint-flip fixture: every checkpoint before the tail
    // accepts; the final one rejects with the lost update.
    let out = bin()
        .arg("check")
        .arg(dir.join("checkpoint_flip.txt"))
        .args(["--stream", "--checkpoints", "5"])
        .output()
        .expect("run stream check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("VIOLATION: lost update"), "{stdout}");
    assert!(stdout.contains("detected by op"), "{stdout}");
    assert!(stdout.contains("checkpoint 1:") && stdout.contains(", ok,"), "{stdout}");
    // Same for the late-arriving long fork.
    let out = bin()
        .arg("check")
        .arg(dir.join("late_arriving_anomaly.txt"))
        .args(["--stream"])
        .output()
        .expect("run stream check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("VIOLATION: long fork"), "{stdout}");
    // A clean multi-component fixture streams to an accept, dirty
    // components only.
    let out = bin()
        .arg("check")
        .arg(dir.join("shard_disjoint_components.txt"))
        .args(["--stream", "--checkpoints", "3"])
        .output()
        .expect("run stream check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("OK") && stdout.contains("streaming"), "{stdout}");
    // SER streaming rejects the lattice exactly like the batch run.
    let out = bin()
        .arg("check")
        .arg(dir.join("solver_stress_lattice.txt"))
        .args(["--stream", "--isolation", "ser"])
        .output()
        .expect("run stream ser check");
    assert_eq!(out.status.code(), Some(1), "SER lattice must reject under --stream");
    // --stream composes with neither --no-pruning nor --plain.
    let out = bin()
        .arg("check")
        .arg(dir.join("serializable.txt"))
        .args(["--stream", "--no-pruning"])
        .output()
        .expect("run stream check");
    assert_eq!(out.status.code(), Some(2), "--stream --no-pruning must be a usage error");
}

/// `--compact` composes with `--stream`: the watermark fixtures keep
/// their anomaly verdicts with compaction on (the settled-prefix witness
/// sits above the watermark; the straddling one pins it), clean fixtures
/// still accept, and every `--compact` setting agrees with the batch
/// verdict.
#[test]
fn stream_compact_flag_preserves_fixture_verdicts() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, code, needle) in [
        ("settled_prefix_late_anomaly.txt", 1, "lost update"),
        ("watermark_straddle_anomaly.txt", 1, "lost update"),
        ("checkpoint_flip.txt", 1, "lost update"),
        ("shard_disjoint_components.txt", 0, "OK"),
    ] {
        for mode in ["on", "off", "auto"] {
            let out = bin()
                .arg("check")
                .arg(dir.join(file))
                .args(["--stream", "--compact", mode])
                .output()
                .expect("run stream compact check");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(code), "{file} --compact {mode}\n{stdout}");
            assert!(stdout.contains(needle), "{file} --compact {mode}: {stdout}");
        }
    }
    let out = bin()
        .args(["check", "/nonexistent", "--stream", "--compact", "sometimes"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "bad --compact must be a usage error");
}

/// A valid history whose read a compacting stream refuses below its
/// watermark is inconclusive — exit 3, naming the refused read — not a
/// violation: batch accepts it, and so does a stream that keeps every
/// transaction.
#[test]
fn fenced_reads_are_inconclusive_not_violations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, read) in
        [("fenced_value.txt", "value 1 of key 1"), ("fenced_init.txt", "value 0 of key 1")]
    {
        let run = |args: &[&str]| {
            let out = bin().arg("check").arg(dir.join(file)).args(args).output().expect("run");
            (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
        };
        let (code, stdout) = run(&["--stream", "--compact", "on", "--checkpoints", "2"]);
        assert_eq!(code, Some(3), "{file}\n{stdout}");
        assert!(stdout.contains("INCONCLUSIVE"), "{file}: {stdout}");
        let refused = format!("T:(1,2) read {read} below the compaction watermark");
        assert!(stdout.contains(&refused), "{file}: {stdout}");
        assert!(!stdout.contains("VIOLATION"), "{file}: {stdout}");
        for args in
            [&[][..], &["--stream"], &["--stream", "--compact", "off", "--checkpoints", "2"]]
        {
            let (code, stdout) = run(args);
            assert_eq!(code, Some(0), "{file} {args:?}\n{stdout}");
        }
    }
}

#[test]
fn checkpoints_flag_validates() {
    let out = bin().args(["check", "/nonexistent", "--checkpoints", "0"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2), "--checkpoints 0 must be a usage error");
    let out = bin().args(["check", "/nonexistent", "--checkpoints", "soon"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn prune_threads_flag_validates() {
    let out =
        bin().args(["check", "/nonexistent", "--prune-threads", "zero"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2), "bad --prune-threads must be usage error");
    let out = bin().args(["check", "/nonexistent", "--prune-threads", "0"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lost_update.txt");
    let out = bin().args(["check", fixture, "--prune-threads", "4"]).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "a valid --prune-threads checks as usual");
}

/// `--live` replays the history through the concurrent ingest service:
/// verdicts and exit codes match the batch run, and the checkpoint trail
/// and ingest counters are reported.
#[test]
fn live_flag_checks_through_the_ingest_service() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, code, needle) in [
        ("duplicate_delivery_lost_update.txt", 1, "lost update"),
        ("stalled_session_long_fork.txt", 1, "long fork"),
        ("shard_disjoint_components.txt", 0, "OK"),
    ] {
        let out = bin().arg("check").arg(dir.join(file)).arg("--live").output().expect("run live");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{file} --live\n{stdout}");
        assert!(stdout.contains(needle), "{file} --live: {stdout}");
        assert!(stdout.contains("ingest:"), "{file}: missing ingest counters\n{stdout}");
        assert!(stdout.contains("checkpoint 1:"), "{file}: missing trail\n{stdout}");
    }
    // --live inherits --stream's composition rules.
    let out = bin()
        .arg("check")
        .arg(dir.join("serializable.txt"))
        .args(["--live", "--no-pruning"])
        .output()
        .expect("run live check");
    assert_eq!(out.status.code(), Some(2), "--live --no-pruning must be a usage error");
}

/// The solver-stress fixtures reach the solve stage with surviving
/// constraints: the lattice is the SI-accepted / SER-rejected pair.
#[test]
fn solver_stress_fixtures_decide_at_the_solve_stage() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, isolation, code, needle) in [
        ("solver_stress_lattice.txt", "ser", 1, "write skew"),
        ("solver_stress_clique.txt", "ser", 0, "OK"),
        ("solver_stress_lattice.txt", "si", 0, "OK"),
    ] {
        let out = bin()
            .arg("check")
            .arg(dir.join(file))
            .args(["--isolation", isolation])
            .output()
            .expect("run check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{file}/{isolation}: {stdout}");
        assert!(stdout.contains(needle), "{file}/{isolation}: {stdout}");
    }
}

/// The serializability mode: SER rejects SI-acceptable write skew and the
/// sharded run agrees with the whole-history one.
#[test]
fn isolation_ser_flag_rejects_write_skew() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for file in ["write_skew.txt", "ser_write_skew_chain.txt"] {
        for shards in ["off", "auto"] {
            let out = bin()
                .arg("check")
                .arg(dir.join(file))
                .args(["--isolation", "ser", "--shards", shards])
                .output()
                .expect("run ser check");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(1), "{file} --shards {shards}\n{stdout}");
            assert!(stdout.contains("write skew"), "{file}: {stdout}");
        }
    }
    // A serial history stays serializable.
    let out = bin()
        .arg("check")
        .arg(dir.join("serializable.txt"))
        .args(["--isolation", "ser"])
        .output()
        .expect("run ser check");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("serializability"));
}

/// `--shards auto` — the default, as in the library and the benchmark —
/// reports its partition (or the fallback reason).
#[test]
fn shards_auto_reports_partition() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for flags in [&[][..], &["--shards", "auto"]] {
        let out = bin()
            .arg("check")
            .arg(dir.join("shard_disjoint_components.txt"))
            .args(flags)
            .output()
            .expect("run check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("sharded into 2 components"), "{flags:?}: {stdout}");
    }
    let out = bin()
        .arg("check")
        .arg(dir.join("shard_disjoint_components.txt"))
        .args(["--shards", "off"])
        .output()
        .expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && !stdout.contains("sharded into"), "{stdout}");
    let out = bin()
        .arg("check")
        .arg(dir.join("shard_cross_session_fallback.txt"))
        .args(["--shards", "auto"])
        .output()
        .expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CrossShardSessions"), "{stdout}");
}

/// A session without transactions is not a component: one real component
/// plus two empty sessions is a whole-history check.
#[test]
fn empty_sessions_are_not_shard_components() {
    let dir = std::env::temp_dir().join("polysi-cli-test-empty-sessions");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("h.txt");
    std::fs::write(
        &path,
        "session\nbegin\nw 1 1\ncommit\nbegin\nr 1 1\nw 1 2\ncommit\n\
         session\nbegin\nr 1 2\ncommit\nsession\n",
    )
    .unwrap();
    let out = bin().arg("check").arg(&path).output().expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("whole-history check (SingleComponent, 1 key components)"), "{stdout}");
}

/// Every fixture parses, `polysi stats` succeeds on it regardless of the
/// verdict, and `polysi convert` takes it text → binary → text → binary
/// with byte-identical binary output (both encoders are deterministic).
#[test]
fn fixture_corpus_parses_and_has_stats() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let tmp = std::env::temp_dir().join("polysi-cli-test-fixture-convert");
    std::fs::create_dir_all(&tmp).unwrap();
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("txt") {
            continue;
        }
        count += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        polysi::history::codec::decode(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let out = bin().arg("stats").arg(&path).output().expect("run stats");
        assert!(out.status.success(), "{}", path.display());
        assert!(String::from_utf8_lossy(&out.stdout).contains("txns"));
        let (pbh, txt, pbh2) = (tmp.join("a.pbh"), tmp.join("a.txt"), tmp.join("b.pbh"));
        for (from, to) in [(&path, &pbh), (&pbh, &txt), (&txt, &pbh2)] {
            let out = bin().arg("convert").arg(from).arg(to).output().expect("run convert");
            assert!(out.status.success(), "{}: convert to {}", path.display(), to.display());
        }
        assert_eq!(
            std::fs::read(&pbh).unwrap(),
            std::fs::read(&pbh2).unwrap(),
            "{}: convert round trip must be byte-stable",
            path.display()
        );
    }
    assert_eq!(count, 24, "fixture corpus changed size without updating the verdict table");
}

/// An empty transaction is a parse error at the line that closes it —
/// exit 2 with the line number, like an unknown directive — not a panic.
#[test]
fn empty_transaction_is_a_parse_error() {
    let dir = std::env::temp_dir().join("polysi-cli-test-empty-txn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.txt");
    std::fs::write(&path, "session\nbegin\ncommit\n").unwrap();
    for extra in [&[][..], &["--stream"][..], &["--live"][..]] {
        let out = bin().arg("check").arg(&path).args(extra).output().expect("run check");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "check {extra:?}: {stderr}");
        assert!(stderr.contains("line 3") && stderr.contains("empty transaction"), "{stderr}");
    }
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().arg("check").arg("/nonexistent/file").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    // A removed flag is an unknown flag, whatever the file holds.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serializable.txt");
    for removed in
        [["--solve-threads", "4"], ["--checkpoint-threads", "4"], ["--reach-oracle", "dense"]]
    {
        let out = bin().args(["check", fixture]).args(removed).output().expect("run");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {}", removed[0])), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// `convert` moves histories between the text and binary formats in both
/// directions, and the round trip is stable: txt → pbh → txt → pbh
/// reproduces the binary bytes and the same parsed history.
#[test]
fn convert_round_trips_between_formats() {
    let dir = std::env::temp_dir().join("polysi-cli-test-convert");
    std::fs::create_dir_all(&dir).unwrap();
    let txt = dir.join("h.txt");
    std::fs::write(&txt, "session\nbegin\nw 1 10\ncommit\nbegin\nr 1 10\nw 2 20\ncommit\n")
        .unwrap();
    let pbh = dir.join("h.pbh");
    let txt2 = dir.join("h2.txt");
    let pbh2 = dir.join("h2.pbh");
    for (from, to, kind) in
        [(&txt, &pbh, "binary"), (&pbh, &txt2, "text"), (&txt2, &pbh2, "binary")]
    {
        let out = bin().arg("convert").arg(from).arg(to).output().expect("run convert");
        assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("({kind})")), "{stdout}");
    }
    let bin1 = std::fs::read(&pbh).unwrap();
    let bin2 = std::fs::read(&pbh2).unwrap();
    assert!(polysi::history::binfmt::is_binary(&bin1));
    assert_eq!(bin1, bin2, "convert round trip must be byte-stable");
    let original = polysi::history::codec::decode(&std::fs::read_to_string(&txt).unwrap()).unwrap();
    assert_eq!(polysi::history::binfmt::decode(&bin1).unwrap(), original);
    // Converting onto a bad output path fails loudly.
    let out = bin().arg("convert").arg(&txt).arg("/nonexistent/dir/h.pbh").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

/// `check` (batch and `--stream`) auto-detects `.pbh` inputs: converted
/// fixtures keep their exit codes and verdict lines, and corrupted binary
/// bytes are a usage error (exit 2), not a panic.
#[test]
fn check_auto_detects_binary_histories() {
    let dir = std::env::temp_dir().join("polysi-cli-test-pbh");
    std::fs::create_dir_all(&dir).unwrap();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, expected_code, needle) in [
        ("lost_update.txt", 1, "lost update"),
        ("serializable.txt", 0, "OK"),
        ("checkpoint_flip.txt", 1, "lost update"),
    ] {
        let pbh = dir.join(file).with_extension("pbh");
        let out =
            bin().arg("convert").arg(fixtures.join(file)).arg(&pbh).output().expect("convert");
        assert!(out.status.success(), "{file}: convert failed");
        for mode in [&[][..], &["--stream"][..]] {
            let out = bin().arg("check").arg(&pbh).args(mode).output().expect("run check on .pbh");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(expected_code), "{file} {mode:?}\n{stdout}");
            assert!(stdout.contains(needle), "{file} {mode:?}: missing {needle:?}\n{stdout}");
        }
    }
    // Corruption: flip a byte in a segment — typed load error, exit 2.
    let pbh = dir.join("corrupt.pbh");
    let mut bytes = std::fs::read(dir.join("lost_update.pbh")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&pbh, bytes).unwrap();
    let out = bin().arg("check").arg(&pbh).output().expect("run check on corrupt .pbh");
    assert_eq!(out.status.code(), Some(2));
}
