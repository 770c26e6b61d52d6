//! End-to-end smoke test of the `trass` CLI binary: load a CSV, then run
//! every query subcommand against the on-disk deployment.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trass"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn trass");
    assert!(
        out.status.success(),
        "trass {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join(format!("trass-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let deploy = dir.join("deploy");
    let csv_path = dir.join("trips.csv");

    // Three trips: two near-identical, one far away.
    let mut csv = std::fs::File::create(&csv_path).unwrap();
    for (tid, dy) in [(1u64, 0.0), (2, 0.001), (3, 0.3)] {
        for i in 0..10 {
            writeln!(csv, "{tid},{},{}", 116.30 + i as f64 * 0.002, 39.90 + dy).unwrap();
        }
    }
    drop(csv);

    // load
    let out =
        run_ok(&["load", "--data", deploy.to_str().unwrap(), "--csv", csv_path.to_str().unwrap()]);
    assert!(out.contains("loaded 3 trajectories"), "{out}");

    // sim: trip 1 within 0.005° matches 1 and 2.
    let out =
        run_ok(&["sim", "--data", deploy.to_str().unwrap(), "--query", "1", "--eps", "0.005"]);
    assert!(out.contains("2 matches"), "{out}");

    // topk
    let out = run_ok(&["topk", "--data", deploy.to_str().unwrap(), "--query", "1", "--k", "2"]);
    assert!(out.contains("top-2"), "{out}");

    // range covering everything
    let out =
        run_ok(&["range", "--data", deploy.to_str().unwrap(), "--window", "116.0,39.5,117.0,40.5"]);
    assert!(out.contains("3 trajectories"), "{out}");

    // get
    let out = run_ok(&["get", "--data", deploy.to_str().unwrap(), "--tid", "3"]);
    assert!(out.contains("10 points"), "{out}");

    // stats
    let out = run_ok(&["stats", "--data", deploy.to_str().unwrap()]);
    assert!(out.contains("regions:"), "{out}");

    // Unknown trajectory fails cleanly.
    let out =
        bin().args(["get", "--data", deploy.to_str().unwrap(), "--tid", "999"]).output().unwrap();
    assert!(!out.status.success());

    // Hausdorff measure flag parses.
    let out = run_ok(&[
        "sim",
        "--data",
        deploy.to_str().unwrap(),
        "--query",
        "1",
        "--eps",
        "0.005",
        "--measure",
        "hausdorff",
    ]);
    assert!(out.contains("hausdorff"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["sim"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["frobnicate", "--data", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_rejects_a_config_it_cannot_represent() {
    // A shard count is a u8: 300 must not open as 255 (or 8.5 as 8), or
    // rows would be routed to other shards than they were written to.
    let dir = std::env::temp_dir().join(format!("trass-cli-config-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let deploy = dir.join("deploy");
    let csv_path = dir.join("trips.csv");
    let rows: String = (0..10).map(|i| format!("1,{},39.9\n", 116.30 + i as f64 * 0.002)).collect();
    std::fs::write(&csv_path, rows).unwrap();
    run_ok(&["load", "--data", deploy.to_str().unwrap(), "--csv", csv_path.to_str().unwrap()]);

    let config = deploy.join("config.json");
    let saved = std::fs::read_to_string(&config).unwrap();
    assert!(saved.contains("\"shards\":8"), "{saved}");
    for bad in ["\"shards\":300", "\"shards\":8.5"] {
        std::fs::write(&config, saved.replace("\"shards\":8", bad)).unwrap();
        let out = bin().args(["stats", "--data", deploy.to_str().unwrap()]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bad} opened: {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.contains("config shards"), "{bad}: {stderr}");
    }
    std::fs::write(&config, saved).unwrap();
    let out = run_ok(&["stats", "--data", deploy.to_str().unwrap()]);
    assert!(out.contains("regions: 8"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}
