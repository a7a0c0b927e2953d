//! Runs every table/figure harness with a reduced sample count so
//! `cargo bench --workspace` regenerates the paper's entire
//! evaluation section in one pass. The standalone binaries
//! (`cargo run --release -p nb-bench --bin <name>`) produce the
//! full-sample versions.

use std::path::PathBuf;
use std::process::Command;

const EXPERIMENTS: [&str; 7] = [
    "crypto_table",
    "hops_table",
    "keydist_table",
    "trackers_sweep",
    "signing_opt",
    "entities_table",
    "baseline_compare",
];

fn binary_path(name: &str) -> Option<PathBuf> {
    // cargo bench binaries live in target/<profile>/deps; the bin
    // targets live one level up in target/release (built alongside
    // because benches depend on the package's bins? they are not —
    // build them on demand below).
    let exe = std::env::current_exe().ok()?;
    let release_dir = exe.parent()?.parent()?; // target/release
    let candidate = release_dir.join(name);
    candidate.exists().then_some(candidate)
}

fn main() {
    println!("== paper_tables: regenerating every table and figure (reduced samples) ==");
    // Make sure the experiment binaries exist (no-op when current).
    let built = Command::new(env!("CARGO"))
        .args(["build", "--release", "-p", "nb-bench", "--bins"])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !built {
        eprintln!("warning: could not (re)build experiment binaries; using any existing ones");
    }

    for name in EXPERIMENTS {
        println!("\n──────────────────────────────────────────────────────────");
        println!("▶ {name}");
        println!("──────────────────────────────────────────────────────────");
        let Some(path) = binary_path(name) else {
            println!("SKIPPED: target/release/{name} not found (run `cargo build --release -p nb-bench --bins`)");
            continue;
        };
        // Binaries that write BENCH_*.json write it into their working
        // directory; keep the reduced-sample files out of the tree.
        let status = Command::new(&path)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .env("NB_BENCH_SAMPLES", "10")
            .env("NB_BENCH_GROUPS", "4")
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => println!("{name} exited with {s}"),
            Err(e) => println!("{name} failed to launch: {e}"),
        }
    }
}
