//! The output-correctness gate: digests of each workload's JSONL,
//! checked against golden values committed beside the benchmark.
//!
//! A pass is the fixed list of records one workload produces for one
//! seed slot. The golden file holds, per `(workload, slot)`, a 64-bit
//! FNV-1a digest of the whole pass plus a 16-bit tag per record. The
//! pass digest decides; the tags only locate the first differing
//! record, so a mismatch can name its job id or case index.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The golden digests, embedded at build time.
const GOLDEN: &str = include_str!("../golden.txt");

/// Where `--write-golden` writes the regenerated file.
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The 16-bit tag of one record.
fn tag(record: &str) -> u16 {
    let h = fnv1a(FNV_OFFSET, record.as_bytes());
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// Digest of one pass, fed a record at a time.
#[derive(Debug, Clone)]
pub struct PassDigest {
    state: u64,
    tags: Vec<u16>,
}

impl Default for PassDigest {
    fn default() -> PassDigest {
        PassDigest {
            state: FNV_OFFSET,
            tags: Vec::new(),
        }
    }
}

impl PassDigest {
    /// Feed the next record (its exact JSONL bytes, newline included).
    pub fn push(&mut self, record: &str) {
        self.state = fnv1a(self.state, record.as_bytes());
        self.tags.push(tag(record));
    }

    /// Records fed so far.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// The golden line for this pass.
    pub fn line(&self, workload: &str, slot: u64) -> String {
        let mut tags = String::with_capacity(self.tags.len() * 4);
        for t in &self.tags {
            write!(tags, "{t:04x}").expect("writing to a String cannot fail");
        }
        format!("{workload} {slot} {:016x} {tags}\n", self.state)
    }
}

/// The expected digests of one `(workload, slot)` pass.
#[derive(Debug, Clone)]
pub struct Expected {
    digest: u64,
    tags: Vec<u16>,
}

impl Expected {
    /// Look up the golden pass for `(workload, slot)`.
    pub fn load(workload: &str, slot: u64) -> Result<Expected, String> {
        let table = parse(GOLDEN)?;
        table
            .get(&(workload.to_string(), slot))
            .cloned()
            .ok_or_else(|| format!("golden.txt has no entry for {workload} slot {slot}"))
    }

    /// Whether `record` matches record `index` of the golden pass.
    pub fn matches(&self, index: usize, record: &str) -> bool {
        self.tags.get(index) == Some(&tag(record))
    }

    /// Check a completed pass. On a mismatch, returns the index of the
    /// first record whose tag differs (or the record count when every
    /// tag matched but the digest did not).
    pub fn check_pass(&self, pass: &PassDigest) -> Result<(), usize> {
        if pass.state == self.digest && pass.tags == self.tags {
            return Ok(());
        }
        let first = pass
            .tags
            .iter()
            .zip(&self.tags)
            .position(|(a, b)| a != b)
            .unwrap_or(pass.tags.len().min(self.tags.len()));
        Err(first)
    }

    /// Check the first records of a pass: the golden digest covers the
    /// whole pass, so only the records' tags can be compared. Returns
    /// the index of the first differing record on a mismatch.
    pub fn check_prefix(&self, pass: &PassDigest) -> Result<(), usize> {
        (0..pass.tags.len())
            .find(|&i| self.tags.get(i) != Some(&pass.tags[i]))
            .map_or(Ok(()), Err)
    }
}

fn parse(text: &str) -> Result<BTreeMap<(String, u64), Expected>, String> {
    let mut table = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("golden.txt line {}: malformed", n + 1);
        let mut fields = line.split(' ');
        let (Some(workload), Some(slot), Some(digest), tags) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let slot = slot.parse::<u64>().map_err(|_| bad())?;
        let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
        let tags = tags.unwrap_or("");
        if tags.len() % 4 != 0 || !tags.is_ascii() {
            return Err(bad());
        }
        let tags = (0..tags.len() / 4)
            .map(|i| u16::from_str_radix(&tags[i * 4..i * 4 + 4], 16).map_err(|_| bad()))
            .collect::<Result<Vec<u16>, String>>()?;
        table.insert((workload.to_string(), slot), Expected { digest, tags });
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_line_parses_back_and_checks() {
        let mut pass = PassDigest::default();
        pass.push("{\"a\":1}\n");
        pass.push("{\"b\":2}\n");
        let table = parse(&pass.line("w", 3)).unwrap();
        let exp = &table[&("w".to_string(), 3)];
        assert_eq!(exp.tags.len(), 2);
        assert!(exp.matches(1, "{\"b\":2}\n"));
        assert!(exp.check_pass(&pass).is_ok());

        let mut other = PassDigest::default();
        other.push("{\"a\":1}\n");
        other.push("{\"b\":3}\n");
        assert_eq!(exp.check_pass(&other), Err(1));
    }
}
