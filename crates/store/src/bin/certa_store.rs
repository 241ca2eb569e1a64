//! The `certa-store` CLI: inspect, verify, and garbage-collect store
//! artifacts.
//!
//! ```text
//! certa-store inspect <file>...        header + section table + summary
//! certa-store verify <file|dir>...     full decode; non-zero exit on any failure
//! certa-store gc <dir> [--dry-run]     remove corrupt/stale artifacts + .tmp files
//! certa-store search <dir> <dataset> <scale> <seed> [--top N]
//!                                      rank stored models by signature similarity
//!                                      to the named generated dataset
//! certa-store evict <dir> --max-bytes N [--dry-run]
//!                                      drop oldest artifacts (LRU by mtime) until
//!                                      the store fits the byte budget
//! ```
//!
//! `search` output is deterministic byte-for-byte: the repository index is
//! path-sorted, similarities are ranked by a total order, and floats print
//! with fixed precision.

use certa_datagen::{generate, DatasetId, Scale};
use certa_store::{build_signature, describe, verify_file, ModelStore, Repository, EXTENSION};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: certa-store <inspect <file>... | verify <file|dir>... | \
gc <dir> [--dry-run] | search <dir> <dataset> <scale> <seed> [--top N] | \
evict <dir> --max-bytes N [--dry-run]>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "inspect" => inspect(rest),
            "verify" => verify(rest),
            "gc" => gc(rest),
            "search" => search(rest),
            "evict" => evict(rest),
            other if other.ends_with("help") || other == "-h" => {
                eprintln!("{USAGE}");
                2
            }
            other => {
                eprintln!("unknown command `{other}`\n{USAGE}");
                2
            }
        },
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn inspect(files: &[String]) -> i32 {
    if files.is_empty() {
        eprintln!("inspect: no files given\n{USAGE}");
        return 2;
    }
    let mut code = 0;
    for file in files {
        println!("== {file}");
        match std::fs::read(file) {
            Ok(bytes) => match describe(&bytes) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    println!("  INVALID: {e}");
                    code = 1;
                }
            },
            Err(e) => {
                println!("  UNREADABLE: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Expand directories into their `.cst` members, pass files through.
fn expand(paths: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            match ModelStore::new(path).list() {
                Ok(files) => out.extend(files),
                Err(e) => eprintln!("verify: cannot list {p}: {e}"),
            }
        } else {
            out.push(path.to_path_buf());
        }
    }
    out
}

fn verify(paths: &[String]) -> i32 {
    if paths.is_empty() {
        eprintln!("verify: no files given\n{USAGE}");
        return 2;
    }
    let files = expand(paths);
    if files.is_empty() {
        eprintln!("verify: nothing to verify (no .{EXTENSION} files found)");
        return 1;
    }
    let mut failures = 0usize;
    for file in &files {
        match verify_file(file) {
            Ok(kind) => println!("OK      {} ({})", file.display(), kind.name()),
            Err(e) => {
                println!("FAIL    {}: {e}", file.display());
                failures += 1;
            }
        }
    }
    println!("{} file(s), {failures} failure(s)", files.len());
    i32::from(failures > 0)
}

/// `search <dir> <dataset> <scale> <seed> [--top N]`: generate the query
/// world's dataset, build its signature, and rank the store's signed model
/// artifacts by similarity — the CLI face of `Repository::nearest`.
fn search(args: &[String]) -> i32 {
    let mut pos: Vec<&str> = Vec::new();
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--top" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("search: --top needs an integer value\n{USAGE}");
                    return 2;
                }
            }
        } else if a.starts_with("--") {
            eprintln!("search: unknown flag `{a}`\n{USAGE}");
            return 2;
        } else {
            pos.push(a.as_str());
        }
    }
    let [dir, dataset, scale, seed] = pos.as_slice() else {
        eprintln!("search: expected <dir> <dataset> <scale> <seed>\n{USAGE}");
        return 2;
    };
    let id = match DatasetId::from_code(dataset) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("search: {e}");
            return 2;
        }
    };
    let scale: Scale = match scale.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("search: {e}");
            return 2;
        }
    };
    let seed: u64 = match seed.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("search: bad seed: {e}");
            return 2;
        }
    };
    let repo = match Repository::scan(&ModelStore::new(*dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("search: {e}");
            return 1;
        }
    };
    println!(
        "{} indexed model artifact(s), {} skipped",
        repo.len(),
        repo.skipped()
    );
    let query = build_signature(&generate(id, scale, seed));
    for (sim, entry) in repo.nearest(&query, top) {
        println!(
            "{sim:.6}  {}  ({} {} seed {})",
            entry.path.display(),
            entry.signature.dataset,
            entry.signature.scale,
            entry.signature.seed
        );
    }
    0
}

/// `evict <dir> --max-bytes N [--dry-run]`: LRU-by-mtime repository
/// hygiene — drop the oldest artifacts until the store fits the budget.
fn evict(args: &[String]) -> i32 {
    let mut pos: Vec<&str> = Vec::new();
    let mut max_bytes: Option<u64> = None;
    let mut dry_run = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-bytes" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_bytes = Some(n),
                None => {
                    eprintln!("evict: --max-bytes needs an integer value\n{USAGE}");
                    return 2;
                }
            }
        } else if a == "--dry-run" {
            dry_run = true;
        } else if a.starts_with("--") {
            eprintln!("evict: unknown flag `{a}`\n{USAGE}");
            return 2;
        } else {
            pos.push(a.as_str());
        }
    }
    let [dir] = pos.as_slice() else {
        eprintln!("evict: exactly one directory expected\n{USAGE}");
        return 2;
    };
    let Some(max_bytes) = max_bytes else {
        eprintln!("evict: --max-bytes is required\n{USAGE}");
        return 2;
    };
    match ModelStore::new(*dir).evict(max_bytes, dry_run) {
        Ok(removed) => {
            for path in &removed {
                println!(
                    "{} {}",
                    if dry_run { "would evict" } else { "evicted" },
                    path.display()
                );
            }
            println!(
                "{} artifact(s) {}",
                removed.len(),
                if dry_run { "to evict" } else { "evicted" }
            );
            0
        }
        Err(e) => {
            eprintln!("evict: {e}");
            1
        }
    }
}

fn gc(args: &[String]) -> i32 {
    let (dirs, flags): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| !a.starts_with("--"));
    let dry_run = flags.iter().any(|f| f.as_str() == "--dry-run");
    if let Some(bad) = flags.iter().find(|f| f.as_str() != "--dry-run") {
        eprintln!("gc: unknown flag `{bad}`\n{USAGE}");
        return 2;
    }
    let [dir] = dirs.as_slice() else {
        eprintln!("gc: exactly one directory expected\n{USAGE}");
        return 2;
    };
    match ModelStore::new(dir.as_str()).gc(dry_run) {
        Ok(removed) => {
            for path in &removed {
                println!(
                    "{} {}",
                    if dry_run { "would remove" } else { "removed" },
                    path.display()
                );
            }
            println!(
                "{} artifact(s) {}",
                removed.len(),
                if dry_run { "to remove" } else { "removed" }
            );
            0
        }
        Err(e) => {
            eprintln!("gc: {e}");
            1
        }
    }
}
