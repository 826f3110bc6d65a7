//! Run metadata: what code ran, on what host, with which knobs.
//!
//! Two runs are comparable only when everything here but `commit` and
//! `source` agrees (`compare` refuses the rest). The checkout the
//! benchmark runs in may not be a git repository, so besides the commit
//! (read from `.git` when present) the metadata carries a hash of the
//! workspace sources.

use std::path::{Path, PathBuf};

use mrp_obs::Json;

use crate::check::Fingerprint;
use crate::RunConfig;

/// Keys that may differ between the two sides of an A/B comparison.
pub const CODE_KEYS: [&str; 2] = ["commit", "source"];

pub fn collect(workload: &str, cfg: &RunConfig, trace: bool, worker_threads: usize) -> Json {
    let fields: Vec<(&str, Json)> = vec![
        ("commit", Json::Str(git_commit())),
        ("source", Json::Str(source_hash())),
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::U64(cfg.seed)),
        ("seconds", Json::F64(cfg.seconds)),
        ("trace", Json::Bool(trace)),
        (
            "simd",
            Json::Str(mrp_core::simd::level().name().to_string()),
        ),
        (
            "window_delivery",
            Json::Bool(mrp_core::mpppb::window_delivery_enabled()),
        ),
        (
            "nproc",
            Json::U64(mrp_runtime::available_parallelism() as u64),
        ),
        ("pool_threads", Json::U64(cfg.threads as u64)),
        ("threads", Json::U64(worker_threads as u64)),
    ];
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The checked-out commit, from `.git` in the working directory.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(reference) {
        return commit.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a over the paths and contents of the workspace sources
/// (`crates/`, `vendor/` and the root manifests), in path order.
fn source_hash() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("vendor"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut fp = Fingerprint::new();
    let mut any = false;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        any = true;
        fp.str(&path.to_string_lossy()).u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fp.u64(u64::from_le_bytes(word));
        }
    }
    if any {
        format!("{:016x}", fp.finish())
    } else {
        "none".to_string()
    }
}
