//! The host record stored with every result, and the process's peak
//! resident memory.
//!
//! Numbers taken on different hosts, toolchains or source trees are never
//! comparable; the record names all four so a reader can tell.

use std::path::Path;

/// What produced a result: machine, toolchain, profile and source tree.
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    /// Git commit when the checkout is a repository, else `"unknown"`.
    pub commit: String,
    /// FNV-1a digest over every Rust source and manifest of the checkout,
    /// so a result from a non-git export still names its tree.
    pub tree_digest: String,
}

impl HostRecord {
    /// Collects the record for the checkout rooted at `root`.
    pub fn collect(root: &Path) -> Self {
        HostRecord {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
            tree_digest: format!("{:016x}", tree_digest(root)),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"tree_digest\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(self.profile),
            json_str(&self.commit),
            json_str(&self.tree_digest)
        )
    }
}

/// Worker threads the host offers (the fleet never runs more).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `HEAD` by reading the repository's files (no subprocess).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
                return Some(sha.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

fn tree_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src", "shims"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// `struct rusage` as Linux lays it out: two `timeval`s then fourteen
/// `long`s, of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // ru_maxrss is in KiB on Linux.
    usage.longs[0] as f64 / 1024.0
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
