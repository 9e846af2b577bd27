//! The host fingerprint printed with every result: processor count, CPU
//! model, compiler version and source revision.

use crate::report::json_str;

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub revision: String,
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            revision: revision().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"revision\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(&self.revision)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`.
fn revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}
